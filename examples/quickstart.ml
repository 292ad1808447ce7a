(* Quickstart: two PRADS asset monitors behind one SDN switch; traffic
   initially lands on prads1; mid-run we ask OpenNF for a loss-free,
   parallelized move of every flow's state to prads2.

   Run with: dune exec examples/quickstart.exe *)

module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf

let () =
  (* 1. Build the testbed: engine + switch + controller. *)
  let fab = Fabric.create ~seed:11 () in
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let nf1, rt1 =
    Fabric.add_nf fab ~name:"prads1" ~impl:(Opennf_nfs.Prads.impl prads1)
      ~costs:Costs.prads
  in
  let nf2, rt2 =
    Fabric.add_nf fab ~name:"prads2" ~impl:(Opennf_nfs.Prads.impl prads2)
      ~costs:Costs.prads
  in

  (* 2. Generate 2 seconds of traffic: 100 flows at 2500 packets/s. *)
  let gen = Opennf_trace.Gen.create () in
  let schedule, keys =
    Opennf_trace.Gen.steady_flows gen ~flows:100 ~rate:2500.0 ~start:0.05
      ~duration:2.0 ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;

  (* 3. Route everything to prads1, then move it all at t=1s. *)
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  Fabric.Engine.schedule_at fab.engine 1.0 (fun () ->
      Proc.spawn fab.engine (fun () ->
          let report =
            Op_error.ok_exn
              (Move.run fab.ctrl
                 (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any
                    ~guarantee:Move.Loss_free ~parallel:true ()))
          in
          Format.printf "%a@." Move.pp_report report));
  Fabric.run fab;

  (* 4. Verify: nothing lost, state relocated. *)
  let lost = Audit.lost fab.audit ~nfs:[ "prads1"; "prads2" ] in
  Format.printf "flows: %d@." (List.length keys);
  Format.printf "processed: prads1=%d prads2=%d@."
    (Opennf_sb.Runtime.processed_count rt1)
    (Opennf_sb.Runtime.processed_count rt2);
  Format.printf "connections now: prads1=%d prads2=%d@."
    (Opennf_nfs.Prads.connection_count prads1)
    (Opennf_nfs.Prads.connection_count prads2);
  Format.printf "packets lost: %d (loss-free!)@." (List.length lost);
  assert (lost = []);
  assert (Opennf_nfs.Prads.connection_count prads2 = List.length keys)
