(* §2.1's "fast failure recovery with low resource footprint" claim:
   periodically snapshotting all NF state costs bandwidth and leaves the
   backup stale between snapshots; copying state when it is updated
   (notify-driven, Figure 9) spends bytes proportional to the update
   rate and keeps the backup fresh.

   Workload: Bro-like IDS monitoring churning HTTP sessions; the primary
   "fails" at t = 6 s. We report the bytes shipped to the standby and
   how much of the primary's state the standby actually holds at the
   instant of failure. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
module Scope = Opennf_state.Scope
open Opennf_net
open Opennf
module H = Harness

let fail_at = 6.0

let workload fab =
  let gen = Opennf_trace.Gen.create ~seed:14 () in
  (* A new short HTTP session every 100 ms: state churns constantly. *)
  List.iter
    (fun i ->
      List.iter (fun (at, p) -> Fabric.inject_at fab at p)
        (Opennf_trace.Gen.http_session gen
           ~client:(Ipaddr.v 10 0 3 (1 + (i mod 200)))
           ~server:(Ipaddr.v 93 184 216 34)
           ~sport:(25000 + i)
           ~start:(0.2 +. (0.1 *. float_of_int i))
           ~url:(Printf.sprintf "/s%d" i)
           ~body:(String.make 2500 'w') ()))
    (List.init 70 Fun.id)

let bed () =
  let fab = Fabric.create ~seed:14 () in
  let primary_ids = Opennf_nfs.Ids.create () in
  let standby_ids = Opennf_nfs.Ids.create () in
  let primary, _ =
    Fabric.add_nf fab ~name:"primary" ~impl:(Opennf_nfs.Ids.impl primary_ids)
      ~costs:Costs.bro
  in
  let standby, _ =
    Fabric.add_nf fab ~name:"standby" ~impl:(Opennf_nfs.Ids.impl standby_ids)
      ~costs:Costs.bro
  in
  workload fab;
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl Filter.any primary);
  (fab, primary_ids, standby_ids, primary, standby)

(* Coverage = connections present at the standby at the failure instant
   over connections live at the primary. *)
let snapshot_coverage primary_ids standby_ids =
  let p = Opennf_nfs.Ids.conn_count primary_ids in
  let s = Opennf_nfs.Ids.conn_count standby_ids in
  (p, s)

let run_periodic ~period =
  let fab, primary_ids, standby_ids, primary, standby = bed () in
  let bytes = ref 0 in
  let coverage = ref (0, 0) in
  Proc.spawn fab.engine (fun () ->
      let rec loop () =
        Proc.sleep period;
        if Engine.now fab.engine < fail_at then begin
          let r =
            Op_error.ok_exn
              (Copy_op.run fab.ctrl ~src:primary ~dst:standby
                 ~filter:Filter.any
                 ~scope:[ Scope.Per; Scope.Multi; Scope.All ] ())
          in
          bytes := !bytes + r.Copy_op.state_bytes;
          loop ()
        end
      in
      loop ());
  Engine.schedule_at fab.engine fail_at (fun () ->
      coverage := snapshot_coverage primary_ids standby_ids);
  Fabric.run fab;
  (!bytes, !coverage)

let run_incremental () =
  let fab, primary_ids, standby_ids, primary, standby = bed () in
  let coverage = ref (0, 0) in
  let app = ref None in
  Proc.spawn fab.engine (fun () ->
      app :=
        Some
          (Opennf_apps.Failover.init_standby fab.ctrl ~normal:primary ~standby
             ()));
  Engine.schedule_at fab.engine fail_at (fun () ->
      coverage := snapshot_coverage primary_ids standby_ids);
  Fabric.run fab;
  (Opennf_apps.Failover.bytes_transferred (Option.get !app), !coverage)

let row label (bytes, (at_primary, at_standby)) =
  [
    label;
    H.kb bytes;
    string_of_int at_standby;
    string_of_int at_primary;
    Printf.sprintf "%.0f%%"
      (100.0 *. float_of_int at_standby /. float_of_int (max 1 at_primary));
  ]

let run () =
  H.section "Failure-recovery footprint (§2.1): periodic vs notify-driven backup";
  H.table
    ~header:
      [
        "strategy"; "bytes shipped (KB)"; "conns at standby @fail";
        "conns at primary @fail"; "coverage";
      ]
    [
      row "periodic, 5s" (run_periodic ~period:5.0);
      row "periodic, 1s" (run_periodic ~period:1.0);
      row "notify-driven (Fig. 9)" (run_incremental ());
    ];
  H.note
    "Expected shape: a slow periodic snapshot is cheap but stale at the \
     failure instant; a fast one is fresh but ships the whole state over \
     and over; the notify-driven copy is both fresh and proportional to \
     the update rate."

let () =
  H.register ~id:"failover" ~descr:"backup footprint: periodic vs notify-driven" run
