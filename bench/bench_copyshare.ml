(* §8.1.1 (text): copy and share efficiency.

   - A parallelized copy of all multi-flow state for the 500-flow PRADS
     workload (paper: ≈111 ms, no drops, no added packet latency).
   - share with strong consistency: every matching packet is serialized
     through the controller, adding ≥13 ms each; the latency stays flat
     as instances grow from 2 to 6 because the puts go out in parallel. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf
module H = Harness

let copy_experiment () =
  let bed = H.prads_bed () in
  let report = ref None in
  H.run_at bed.H.fab ~at:bed.H.move_at (fun () ->
      report :=
        Some
          (Op_error.ok_exn
             (Copy_op.run bed.H.fab.ctrl ~src:bed.H.nf1 ~dst:bed.H.nf2
                ~filter:Filter.any
                ~scope:[ Opennf_state.Scope.Multi ]
                ())));
  let report = Option.get !report in
  let lat = H.affected_latency bed.H.fab.audit in
  ( Copy_op.duration report,
    report.Copy_op.chunks,
    Opennf_util.Stats.Summary.count lat )

let share_experiment ~rate ~instances =
  let fab = Fabric.create ~seed:77 () in
  let nfs =
    List.init instances (fun i ->
        let prads = Opennf_nfs.Prads.create () in
        let name = Printf.sprintf "prads%d" (i + 1) in
        let nf, _ = Fabric.add_nf fab ~name ~impl:(Opennf_nfs.Prads.impl prads) ~costs:Costs.prads in
        nf)
  in
  (* Light traffic: the strong-consistency path serializes packets, so
     feed it at a rate it can sustain. *)
  let gen = Opennf_trace.Gen.create ~seed:5 () in
  let schedule, _keys =
    Opennf_trace.Gen.steady_flows gen ~flows:4 ~rate ~start:0.5 ~duration:5.0
      ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl Filter.any (List.hd nfs);
      let share =
        Op_error.ok_exn
          (Share.start fab.ctrl ~instances:nfs ~filter:Filter.any
             ~scope:[ Opennf_state.Scope.Multi ]
             ~consistency:Share.Strong ())
      in
      Proc.sleep 6.5;
      Share.stop share);
  Fabric.run fab;
  let audit = fab.audit in
  let stats = Opennf_util.Stats.Summary.create () in
  List.iter
    (fun pkt ->
      match Audit.added_latency audit ~pkt with
      | Some l -> Opennf_util.Stats.Summary.add stats l
      | None -> ())
    (List.sort_uniq Int.compare (Audit.evented_ids audit));
  stats

let run () =
  H.section "Copy and share efficiency (§8.1.1)";
  let duration, chunks, affected = copy_experiment () in
  H.note "parallelized copy of multi-flow state: %sms (%d chunks), %d packets affected (paper: ~111ms, none affected)"
    (H.ms duration) chunks affected;
  let rows =
    List.concat_map
      (fun instances ->
        List.map
          (fun rate ->
            let stats = share_experiment ~rate ~instances in
            let module S = Opennf_util.Stats.Summary in
            [
              string_of_int instances;
              Printf.sprintf "%.0f" rate;
              H.ms (S.mean stats);
              H.ms (S.max stats);
              string_of_int (S.count stats);
            ])
          [ 30.0; 120.0 ])
      [ 2; 3; 4; 6 ]
  in
  H.section "share (strong consistency): per-packet added latency";
  H.table
    ~header:
      [ "instances"; "pkt/s"; "avg-added(ms)"; "max-added(ms)"; "packets" ]
    rows;
  H.note
    "Expected shape: every packet pays a fixed floor (two controller \
     hops; the paper's testbed floor was 13 ms), more when it queues \
     behind an earlier packet's synchronization (higher rate), and the \
     cost stays flat as instances grow (puts go out in parallel)."

let () = H.register ~id:"copyshare" ~descr:"copy time; share strong-consistency latency" run
