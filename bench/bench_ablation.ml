(* Ablations over the cost-model knobs: which mechanism produces which
   curve. Each sweep varies exactly one parameter of the standard
   Figure 10 setup (500 flows, 2500 pkt/s, loss-free parallelized move)
   and reports the total move time and drops of a no-guarantee move.

   - flow-mod delay drives the no-guarantee drop count (the del→route
     window) but barely moves the loss-free total;
   - the control-connection bandwidth drives the loss-free total (event
     flush) but not the serialization-bound get/put;
   - the per-chunk serialization cost drives both get-bound numbers;
   - the controller per-message cost shifts everything uniformly. *)

module Runtime = Opennf_sb.Runtime
module Costs = Opennf_sb.Costs
module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
open Opennf_net
open Opennf
module H = Harness

let flows = 500
let rate = 2500.0

let run_pair ?config ?flow_mod_delay ?costs () =
  let costs = Option.value ~default:Costs.prads costs in
  let fab = Fabric.create ~seed:101 ?config ?flow_mod_delay () in
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let nf1, rt1 =
    Fabric.add_nf fab ~name:"prads1" ~impl:(Opennf_nfs.Prads.impl prads1) ~costs
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"prads2" ~impl:(Opennf_nfs.Prads.impl prads2) ~costs
  in
  let gen = Opennf_trace.Gen.create ~seed:303 () in
  let handshakes = 2.0 *. float_of_int flows /. rate in
  let schedule, _ =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate ~start:0.05
      ~duration:(handshakes +. 2.5) ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  let move_at = 0.05 +. handshakes +. 0.5 in
  let lf = ref None and ng_drops = ref 0 in
  Engine.schedule_at fab.engine move_at (fun () ->
      Proc.spawn fab.engine (fun () ->
          lf :=
            Some
              (Op_error.ok_exn
                 (Move.run fab.ctrl
                    (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any
                       ~guarantee:Move.Loss_free ~parallel:true ())))));
  Fabric.run fab;
  (* Separate run for the no-guarantee drops (fresh bed, same knobs). *)
  let fab2 = Fabric.create ~seed:101 ?config ?flow_mod_delay () in
  let p1 = Opennf_nfs.Prads.create () in
  let p2 = Opennf_nfs.Prads.create () in
  let n1, r1 = Fabric.add_nf fab2 ~name:"prads1" ~impl:(Opennf_nfs.Prads.impl p1) ~costs in
  let n2, _ = Fabric.add_nf fab2 ~name:"prads2" ~impl:(Opennf_nfs.Prads.impl p2) ~costs in
  let gen2 = Opennf_trace.Gen.create ~seed:303 () in
  let schedule2, _ =
    Opennf_trace.Gen.steady_flows gen2 ~flows ~rate ~start:0.05
      ~duration:(handshakes +. 2.5) ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab2 at p) schedule2;
  Proc.spawn fab2.engine (fun () -> Controller.set_route fab2.ctrl Filter.any n1);
  Engine.schedule_at fab2.engine move_at (fun () ->
      Proc.spawn fab2.engine (fun () ->
          ignore
            (Op_error.ok_exn
               (Move.run fab2.ctrl
                  (Move.spec ~src:n1 ~dst:n2 ~filter:Filter.any
                     ~guarantee:Move.No_guarantee ~parallel:true ())))));
  Fabric.run fab2;
  ng_drops := Runtime.tombstone_dropped r1;
  ignore rt1;
  (Move.duration (Option.get !lf), !ng_drops)

let row label (lf_time, drops) =
  [ label; H.ms lf_time; string_of_int drops ]

let header = [ "setting"; "LF move (ms)"; "NG drops" ]

let run () =
  H.section "Ablation: flow-mod install delay";
  H.table ~header
    (List.map
       (fun d -> row (Printf.sprintf "%.0f ms" (1000.0 *. d)) (run_pair ~flow_mod_delay:d ()))
       [ 0.002; 0.010; 0.040 ]);
  H.note "Expected: NG drops grow with the delay (longer del-to-route window); LF time moves only slightly.";
  H.section "Ablation: control-connection bandwidth";
  H.table ~header
    (List.map
       (fun bw ->
         let config =
           { Controller.default_config with Controller.sw_bandwidth = Some bw }
         in
         row (Printf.sprintf "%.0f kB/s" (bw /. 1000.0)) (run_pair ~config ()))
       [ 200_000.0; 600_000.0; 2_400_000.0 ]);
  H.note "Expected: LF time falls as the event flush drains faster; NG drops barely move.";
  H.section "Ablation: per-chunk serialization cost";
  H.table ~header
    (List.map
       (fun ser ->
         let costs = { Costs.prads with Costs.serialize_chunk = ser } in
         row (Printf.sprintf "%.0f us" (1e6 *. ser)) (run_pair ~costs ()))
       [ 50e-6; 172e-6; 500e-6 ]);
  H.note
    "Expected: LF time tracks serialization (the get dominates). NG drops \
     move the other way: cheap serialization front-loads the per-chunk \
     deletes so flows sit tombstoned while the puts and route update \
     drain; expensive serialization paces the deletes late.";
  H.section "Ablation: controller per-message cost";
  H.table ~header
    (List.map
       (fun c ->
         let config = { Controller.default_config with Controller.msg_cost = c } in
         row (Printf.sprintf "%.0f us" (1e6 *. c)) (run_pair ~config ()))
       [ 5e-6; 25e-6; 100e-6 ]);
  H.note "Expected: a uniform shift of everything that flows through the controller."

let () = H.register ~id:"ablation" ~descr:"cost-model knob sweeps" run
