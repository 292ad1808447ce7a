(* §8.4: prior NF control planes on the elastic-monitoring scenario.

   (a) VM replication: cloning Bro1 wholesale copies megabytes of
       unneeded state and produces bogus connection-log entries at both
       instances, because each instance holds connections whose traffic
       it never sees again. OpenNF moves only the HTTP flows' state and
       produces none.
   (b) Scaling without re-balancing active flows: new flows go to the
       new instance but existing flows stay pinned, so the old instance
       stays loaded until its longest flow ends — scale-in waits tens of
       minutes, versus a sub-second loss-free move. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf
module H = Harness

let http_filter = Filter.make ~proto:Flow.Tcp ~dst_port:80 ()

(* Mixed workload: HTTP flows (dport 80) and other flows (dport 7000+). *)
let mixed_schedule gen ~rate ~duration =
  let http, http_keys =
    Opennf_trace.Gen.steady_flows gen ~flows:150 ~rate:(rate /. 2.0) ~start:0.1
      ~duration ()
  in
  let other, other_keys =
    Opennf_trace.Gen.steady_flows gen ~flows:150 ~rate:(rate /. 2.0) ~start:0.1
      ~duration
      ~src_net:(Ipaddr.v 10 9 0 0)
      ~dst_net:(Ipaddr.v 172 20 0 0)
      ()
  in
  (* Retarget "other" flows to a non-HTTP port. *)
  let other =
    List.map
      (fun ((at, p) : float * Packet.t) ->
        let key = p.Packet.key in
        let key =
          if key.Flow.dst_port = 80 then { key with Flow.dst_port = 7001 }
          else if key.Flow.src_port = 80 then { key with Flow.src_port = 7001 }
          else key
        in
        ( at,
          Packet.create ~id:p.Packet.id ~key ~flags:p.Packet.flags
            ~seq:p.Packet.seq ~payload:p.Packet.payload ~sent_at:p.Packet.sent_at
            () ))
      other
  in
  ( Opennf_trace.Gen.merge [ http; other ],
    http_keys,
    List.map
      (fun (k : Flow.key) ->
        if k.Flow.dst_port = 80 then { k with Flow.dst_port = 7001 } else k)
      other_keys )

type approach = Vm_clone | Opennf_move

let run_split approach =
  let fab = Fabric.create ~seed:66 () in
  let ids1 = Opennf_nfs.Ids.create () in
  let ids2 = Opennf_nfs.Ids.create () in
  let impl1 = Opennf_nfs.Ids.impl ids1 in
  let impl2 = Opennf_nfs.Ids.impl ids2 in
  let nf1, _ = Fabric.add_nf fab ~name:"bro1" ~impl:impl1 ~costs:Costs.bro in
  let nf2, _ = Fabric.add_nf fab ~name:"bro2" ~impl:impl2 ~costs:Costs.bro in
  let gen = Opennf_trace.Gen.create ~seed:12 () in
  let schedule, _, _ = mixed_schedule gen ~rate:1000.0 ~duration:8.0 in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  let vm_report = ref None in
  let mv_report = ref None in
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl Filter.any nf1;
      Proc.sleep 4.0;
      (* Scale out: HTTP flows are rebalanced to bro2. *)
      match approach with
      | Vm_clone ->
        vm_report :=
          Some
            (Opennf_baseline.Vm_replication.clone ~src:impl1 ~dst:impl2
               ~needed:http_filter);
        Controller.set_route fab.ctrl http_filter nf2
      | Opennf_move ->
        mv_report :=
          Some
            (Op_error.ok_exn
               (Move.run fab.ctrl
                  (Move.spec ~src:nf1 ~dst:nf2 ~filter:http_filter
                     ~scope:[ Opennf_state.Scope.Per; Opennf_state.Scope.Multi ]
                     ~guarantee:Move.Loss_free ~parallel:true ()))));
  Fabric.run fab;
  (ids1, ids2, !vm_report, !mv_report)

(* (b) Sticky per-flow routing: heavy-tailed flow lengths mean the old
   instance drains extremely slowly after a scale-out. *)
let sticky_drain () =
  let fab = Fabric.create ~seed:44 () in
  let ids1 = Opennf_nfs.Ids.create () in
  let ids2 = Opennf_nfs.Ids.create () in
  let nf1, rt1 =
    Fabric.add_nf fab ~name:"bro1" ~impl:(Opennf_nfs.Ids.impl ids1)
      ~costs:Costs.bro
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"bro2" ~impl:(Opennf_nfs.Ids.impl ids2)
      ~costs:Costs.bro
  in
  let gen = Opennf_trace.Gen.create ~seed:21 () in
  let rng = Opennf_trace.Gen.rng gen in
  (* 80 flows with Pareto durations (scale 60s, shape 1.1, capped at
     1 hour): ~9-15% run longer than 25 minutes, echoing the paper. *)
  let scale_out_at = 120.0 in
  let flows =
    List.init 80 (fun i ->
        let dur =
          Float.min 3600.0
            (Opennf_util.Rng.pareto rng ~shape:1.1 ~scale:60.0)
        in
        let start = Opennf_util.Rng.float rng 100.0 in
        (i, start, dur))
  in
  let schedule =
    List.concat_map
      (fun (i, start, dur) ->
        let key =
          Flow.make
            ~src:(Ipaddr.v 10 3 (i / 250) (1 + (i mod 250)))
            ~dst:(Ipaddr.v 172 18 0 1) ~proto:Flow.Tcp ~sport:(15000 + i)
            ~dport:80 ()
        in
        let syn = Opennf_trace.Gen.packet gen ~at:start ~key ~flags:[ Syn ] () in
        (* One packet every 2 s keeps the flow alive without swamping
           the simulation. *)
        let n = int_of_float (dur /. 2.0) in
        let data =
          List.init n (fun j ->
              Opennf_trace.Gen.packet gen
                ~at:(start +. (2.0 *. float_of_int (j + 1)))
                ~key ~flags:[ Ack ] ~seq:(j + 1) ())
        in
        syn :: data)
      flows
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  let router = ref None in
  Proc.spawn fab.engine (fun () ->
      let r =
        Opennf_baseline.Flow_router.start fab.ctrl ~policy:(fun _ -> nf1) ()
      in
      router := Some r;
      Proc.sleep scale_out_at;
      (* Scale-out: only new flows go to bro2. *)
      Opennf_baseline.Flow_router.set_policy r (fun _ -> nf2));
  Fabric.run fab;
  ignore rt1;
  (* When did bro1 process its last packet after the policy change? *)
  let last_at_bro1 =
    List.fold_left
      (fun acc pkt ->
        match Audit.process_time fab.audit ~pkt with
        | Some t -> Float.max acc t
        | None -> acc)
      0.0
      (Audit.processed_order ~nf:"bro1" fab.audit)
  in
  let long_flows =
    List.length (List.filter (fun (_, _, d) -> d > 1500.0) flows)
  in
  (scale_out_at, last_at_bro1, long_flows, List.length flows)

let run () =
  H.section "§8.4(a): VM replication vs OpenNF move (split HTTP to bro2)";
  let ids1_vm, ids2_vm, vm, _ = run_split Vm_clone in
  let ids1_nf, ids2_nf, _, mv = run_split Opennf_move in
  let vm = Option.get vm and mv = Option.get mv in
  H.table
    ~header:
      [
        "approach"; "state copied (KB)"; "unneeded (KB)";
        "bogus log entries bro1"; "bogus log entries bro2";
      ]
    [
      [
        "VM replication";
        H.kb vm.Opennf_baseline.Vm_replication.total_bytes;
        H.kb
          (vm.Opennf_baseline.Vm_replication.total_bytes
          - vm.Opennf_baseline.Vm_replication.needed_bytes);
        string_of_int (Opennf_nfs.Ids.bogus_log_entries ids1_vm);
        string_of_int (Opennf_nfs.Ids.bogus_log_entries ids2_vm);
      ];
      [
        "OpenNF move";
        H.kb mv.Move.state_bytes;
        "0.0";
        string_of_int (Opennf_nfs.Ids.bogus_log_entries ids1_nf);
        string_of_int (Opennf_nfs.Ids.bogus_log_entries ids2_nf);
      ];
    ];
  H.note
    "Expected shape: replication copies everything (unneeded state at \
     both instances) and leaves abruptly-terminated connections in both \
     logs; the move transfers only HTTP state and leaves clean logs.";
  H.section "§8.4(b): scale-in delay without re-balancing active flows";
  let scale_at, drained_at, long_flows, total = sticky_drain () in
  H.table
    ~header:[ "metric"; "value" ]
    [
      [ "scale-out at"; Printf.sprintf "%.0fs" scale_at ];
      [ "bro1 drained at"; Printf.sprintf "%.0fs" drained_at ];
      [
        "scale-in wait";
        Printf.sprintf "%.1f minutes" ((drained_at -. scale_at) /. 60.0);
      ];
      [
        "flows > 25 min";
        Printf.sprintf "%d of %d (%.0f%%)" long_flows total
          (100.0 *. float_of_int long_flows /. float_of_int total);
      ];
      [ "OpenNF loss-free move instead"; "~0.2s (Figure 10)" ];
    ];
  H.note
    "Expected shape: heavy-tailed flow durations keep the old instance \
     occupied for tens of minutes after scale-out (paper: >25 minutes, \
     ~9%% of flows longer than 25 min)."

let () = H.register ~id:"sec84" ~descr:"prior control planes comparison" run
