(* Tests for the prior-control-plane baselines: Split/Merge migrate, VM
   replication, and sticky per-flow routing. These exist to demonstrate
   the failure modes OpenNF's operations eliminate, so the assertions
   check that the failures actually occur. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
module Nf_api = Opennf_sb.Nf_api
open Opennf_net
open Opennf
module H = Helpers

let ip = Ipaddr.v

let test_splitmerge_moves_state () =
  let tb = H.prads_pair ~flows:30 () in
  let report = ref None in
  H.run_with tb ~at:1.0 (fun () ->
      report :=
        Some
          (Opennf_baseline.Splitmerge.migrate tb.H.fab.ctrl ~src:tb.H.nf1
             ~dst:tb.H.nf2 ~filter:Filter.any));
  let r = Option.get !report in
  Alcotest.(check int) "all chunks transferred" 30 r.Opennf_baseline.Splitmerge.chunks;
  Alcotest.(check int) "state ends at the destination" 30
    (Opennf_nfs.Prads.connection_count tb.H.prads2);
  Alcotest.(check bool) "traffic was halted and buffered" true
    (r.Opennf_baseline.Splitmerge.buffered > 0)

let test_splitmerge_reorders_against_arrival () =
  (* The Figure 5 race: a constrained packet-out engine lets directly
     forwarded packets overtake the controller's flush. *)
  let tb = H.prads_pair ~flows:50 ~rate:3000.0 ~packet_out_rate:800.0 () in
  H.run_with tb ~at:1.0 (fun () ->
      ignore
        (Opennf_baseline.Splitmerge.migrate tb.H.fab.ctrl ~src:tb.H.nf1
           ~dst:tb.H.nf2 ~filter:Filter.any));
  Alcotest.(check bool) "reordering occurred" true
    (List.length (Audit.arrival_order_violations tb.H.fab.audit) > 0)

let test_opennf_op_move_does_not_reorder_same_setup () =
  (* Same adversarial setup, but OpenNF's order-preserving move. *)
  let tb = H.prads_pair ~flows:50 ~rate:3000.0 ~packet_out_rate:800.0 () in
  H.run_with tb ~at:1.0 (fun () ->
      ignore
        (Op_error.ok_exn
           (Move.run tb.H.fab.ctrl
              (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                 ~guarantee:Move.Order_preserving ()))));
  Alcotest.(check int) "no reordering" 0
    (List.length (Audit.arrival_order_violations tb.H.fab.audit));
  H.assert_loss_free tb

let test_vm_replication_copies_everything () =
  let ids1 = Opennf_nfs.Ids.create () in
  let ids2 = Opennf_nfs.Ids.create () in
  let impl1 = Opennf_nfs.Ids.impl ids1 and impl2 = Opennf_nfs.Ids.impl ids2 in
  (* 4 HTTP flows and 4 others at the source. *)
  let mk dport i =
    let key = Flow.make ~src:(ip 10 0 0 (1 + i)) ~dst:(ip 8 8 8 8) ~sport:(100 + i) ~dport () in
    impl1.Nf_api.process_packet
      (Packet.create ~id:i ~key ~flags:[ Syn ] ~sent_at:0.0 ())
  in
  for i = 0 to 3 do mk 80 i done;
  for i = 4 to 7 do mk 7001 i done;
  let report =
    Opennf_baseline.Vm_replication.clone ~src:impl1 ~dst:impl2
      ~needed:(Filter.make ~proto:Flow.Tcp ~dst_port:80 ())
  in
  Alcotest.(check int) "clone holds all connections" 8
    (Opennf_nfs.Ids.conn_count ids2);
  Alcotest.(check bool) "unneeded state was copied too" true
    (report.Opennf_baseline.Vm_replication.needed_bytes
     < report.Opennf_baseline.Vm_replication.total_bytes);
  Alcotest.(check bool) "source unchanged" true
    (Opennf_nfs.Ids.conn_count ids1 = 8)

let test_flow_router_sticky () =
  let fab = Fabric.create ~seed:13 () in
  let p1 = Opennf_nfs.Prads.create () in
  let p2 = Opennf_nfs.Prads.create () in
  let nf1, rt1 =
    Fabric.add_nf fab ~name:"a" ~impl:(Opennf_nfs.Prads.impl p1) ~costs:Costs.dummy
  in
  let nf2, rt2 =
    Fabric.add_nf fab ~name:"b" ~impl:(Opennf_nfs.Prads.impl p2) ~costs:Costs.dummy
  in
  (* Flow 1 starts before the policy change and keeps sending after it;
     flow 2 starts after the change. *)
  let gen = Opennf_trace.Gen.create () in
  let k1 = Flow.make ~src:(ip 10 0 0 1) ~dst:(ip 8 8 8 8) ~sport:1 ~dport:80 () in
  let k2 = Flow.make ~src:(ip 10 0 0 2) ~dst:(ip 8 8 8 8) ~sport:2 ~dport:80 () in
  let sched =
    [ Opennf_trace.Gen.packet gen ~at:0.2 ~key:k1 ~flags:[ Syn ] ();
      Opennf_trace.Gen.packet gen ~at:1.5 ~key:k1 ~seq:1 ();
      Opennf_trace.Gen.packet gen ~at:1.6 ~key:k2 ~flags:[ Syn ] ();
      Opennf_trace.Gen.packet gen ~at:1.7 ~key:k2 ~seq:1 () ]
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) sched;
  let router = ref None in
  Proc.spawn fab.engine (fun () ->
      let r = Opennf_baseline.Flow_router.start fab.ctrl ~policy:(fun _ -> nf1) () in
      router := Some r;
      Proc.sleep 1.0;
      Opennf_baseline.Flow_router.set_policy r (fun _ -> nf2));
  Fabric.run fab;
  let r = Option.get !router in
  Alcotest.(check int) "old flow stays pinned to a" 1
    (Opennf_baseline.Flow_router.pinned_on r nf1);
  Alcotest.(check int) "new flow pinned to b" 1
    (Opennf_baseline.Flow_router.pinned_on r nf2);
  Alcotest.(check int) "old flow processed at a" 2
    (Opennf_sb.Runtime.processed_count rt1);
  Alcotest.(check int) "new flow processed at b" 2
    (Opennf_sb.Runtime.processed_count rt2)

let suite =
  [
    Alcotest.test_case "split/merge: transfers state" `Quick
      test_splitmerge_moves_state;
    Alcotest.test_case "split/merge: Figure 5 reordering" `Quick
      test_splitmerge_reorders_against_arrival;
    Alcotest.test_case "opennf OP move: no reordering, same setup" `Quick
      test_opennf_op_move_does_not_reorder_same_setup;
    Alcotest.test_case "vm replication: unneeded state" `Quick
      test_vm_replication_copies_everything;
    Alcotest.test_case "flow router: sticky pinning" `Quick test_flow_router_sticky;
  ]
