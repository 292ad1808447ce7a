(* Integration tests for the northbound move operation (§5.1): the three
   guarantee levels and the two optimizations, checked against the audit
   ledger's loss-freedom and order-preservation definitions. *)

module Proc = Opennf_sim.Proc
open Opennf_net
open Opennf
module H = Helpers

let move_all tb ~guarantee ~parallel ~early_release =
  let report = ref None in
  H.run_with tb ~at:1.0 (fun () ->
      let spec =
        Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any ~guarantee
          ~parallel ~early_release ()
      in
      report := Some (Op_error.ok_exn (Move.run tb.H.fab.ctrl spec)));
  Option.get !report

let test_no_guarantee_drops () =
  let tb = H.prads_pair () in
  let report =
    move_all tb ~guarantee:Move.No_guarantee ~parallel:false
      ~early_release:false
  in
  Alcotest.(check bool)
    "state was transferred" true
    (report.Move.per_chunks > 0);
  (* Packets arriving at the source mid-move are dropped. *)
  Alcotest.(check bool)
    "some packets were dropped" true
    (Opennf_sb.Runtime.tombstone_dropped tb.H.rt1 > 0);
  (* And the flows continue at the destination afterwards. *)
  Alcotest.(check bool)
    "destination processed traffic" true
    (Opennf_sb.Runtime.processed_count tb.H.rt2 > 0)

let test_loss_free () =
  let tb = H.prads_pair () in
  let report =
    move_all tb ~guarantee:Move.Loss_free ~parallel:false ~early_release:false
  in
  Alcotest.(check bool) "chunks moved" true (report.Move.per_chunks > 0);
  Alcotest.(check bool) "packets were relayed" true (report.Move.relayed > 0);
  H.assert_loss_free tb;
  (* All 5-tuple state ends up at the destination. *)
  Alcotest.(check int) "src kept no connections" 0
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  Alcotest.(check int) "dst holds all connections"
    (List.length tb.H.keys)
    (Opennf_nfs.Prads.connection_count tb.H.prads2)

let test_loss_free_parallel () =
  let tb = H.prads_pair () in
  let report =
    move_all tb ~guarantee:Move.Loss_free ~parallel:true ~early_release:false
  in
  Alcotest.(check bool) "chunks moved" true (report.Move.per_chunks > 0);
  H.assert_loss_free tb

let test_loss_free_early_release () =
  let tb = H.prads_pair () in
  let _report =
    move_all tb ~guarantee:Move.Loss_free ~parallel:true ~early_release:true
  in
  H.assert_loss_free tb

let test_order_preserving () =
  let tb = H.prads_pair () in
  let _report =
    move_all tb ~guarantee:Move.Order_preserving ~parallel:false
      ~early_release:false
  in
  H.assert_loss_free tb;
  H.assert_order_preserved tb

let test_order_preserving_optimized () =
  let tb = H.prads_pair () in
  let _report =
    move_all tb ~guarantee:Move.Order_preserving ~parallel:true
      ~early_release:true
  in
  H.assert_loss_free tb;
  (* With early release, ordering is guaranteed per flow (§5.1.3). *)
  H.assert_order_preserved_per_flow tb

let test_loss_free_not_order_preserving_is_possible () =
  (* A loss-free move may reorder (that is why order-preserving exists);
     with a slow packet-out path the race of Figure 5 shows up. *)
  let tb = H.prads_pair ~rate:4000.0 ~packet_out_rate:500.0 () in
  let _report =
    move_all tb ~guarantee:Move.Loss_free ~parallel:true ~early_release:false
  in
  H.assert_loss_free tb;
  let violations = Audit.order_violations tb.H.fab.audit in
  Alcotest.(check bool)
    "loss-free alone reordered some packets" true
    (List.length violations > 0)

let test_faster_without_guarantees () =
  let tb1 = H.prads_pair () in
  let ng =
    move_all tb1 ~guarantee:Move.No_guarantee ~parallel:true
      ~early_release:false
  in
  let tb2 = H.prads_pair () in
  let op =
    move_all tb2 ~guarantee:Move.Order_preserving ~parallel:true
      ~early_release:true
  in
  Alcotest.(check bool)
    "order-preserving move takes longer than no-guarantees" true
    (Move.duration op > Move.duration ng)

let test_multiflow_scope () =
  let tb = H.prads_pair () in
  H.run_with tb ~at:1.0 (fun () ->
      let spec =
        Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
          ~scope:[ Opennf_state.Scope.Per; Opennf_state.Scope.Multi ]
          ~guarantee:Move.Loss_free ()
      in
      ignore (Op_error.ok_exn (Move.run tb.H.fab.ctrl spec)));
  Alcotest.(check int) "assets moved away from src" 0
    (Opennf_nfs.Prads.asset_count tb.H.prads1);
  Alcotest.(check bool)
    "assets present at dst" true
    (Opennf_nfs.Prads.asset_count tb.H.prads2 > 0);
  H.assert_loss_free tb

let test_filtered_move_leaves_other_flows () =
  let tb = H.prads_pair ~flows:20 () in
  (* Move only the first flow. *)
  let the_flow = List.hd tb.H.keys in
  H.run_with tb ~at:1.0 (fun () ->
      let spec =
        Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:(Filter.of_key the_flow)
          ~guarantee:Move.Loss_free ()
      in
      let report = Op_error.ok_exn (Move.run tb.H.fab.ctrl spec) in
      Alcotest.(check int) "exactly one chunk" 1 report.Move.per_chunks);
  Alcotest.(check int) "src keeps the rest" 19
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  Alcotest.(check int) "dst holds the moved flow" 1
    (Opennf_nfs.Prads.connection_count tb.H.prads2);
  H.assert_loss_free tb

let suite =
  [
    Alcotest.test_case "no-guarantee move drops packets" `Quick
      test_no_guarantee_drops;
    Alcotest.test_case "loss-free move loses nothing" `Quick test_loss_free;
    Alcotest.test_case "loss-free move (parallel)" `Quick
      test_loss_free_parallel;
    Alcotest.test_case "loss-free move (early release)" `Quick
      test_loss_free_early_release;
    Alcotest.test_case "order-preserving move" `Quick test_order_preserving;
    Alcotest.test_case "order-preserving move (PL+ER)" `Quick
      test_order_preserving_optimized;
    Alcotest.test_case "loss-free alone can reorder" `Quick
      test_loss_free_not_order_preserving_is_possible;
    Alcotest.test_case "guarantees cost time" `Quick
      test_faster_without_guarantees;
    Alcotest.test_case "multi-flow scope moves assets" `Quick
      test_multiflow_scope;
    Alcotest.test_case "single-flow filter is respected" `Quick
      test_filtered_move_leaves_other_flows;
  ]
