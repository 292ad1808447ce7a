(* Move edge cases: idle flows, empty filters, repeated moves,
   concurrent disjoint moves, compression, overload, and early release
   started while flows are still arriving. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf
module H = Helpers

let ip = Ipaddr.v

let test_op_move_of_idle_flows_completes () =
  (* The paper's Figure 6 waits for a packet-in before phase 2, which
     blocks forever on idle flows; the barrier-based variant must not.
     Traffic ends at t=1.15; the move runs at t=2 with the network
     silent. *)
  let tb = H.prads_pair ~flows:10 ~rate:200.0 ~duration:1.0 () in
  let finished_at = ref infinity in
  H.run_with tb ~at:2.0 (fun () ->
      let report =
        Op_error.ok_exn
          (Move.run tb.H.fab.ctrl
             (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                ~guarantee:Move.Order_preserving ()))
      in
      finished_at := report.Move.finished);
  Alcotest.(check bool) "completed promptly (no first-packet wait)" true
    (!finished_at < 3.0);
  Alcotest.(check int) "state moved" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads2)

let test_move_with_no_matching_state () =
  let tb = H.prads_pair ~flows:5 () in
  H.run_with tb ~at:1.0 (fun () ->
      let report =
        Op_error.ok_exn
          (Move.run tb.H.fab.ctrl
             (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2
                ~filter:(Filter.of_src_host (ip 203 0 113 250))
                ~guarantee:Move.Loss_free ()))
      in
      Alcotest.(check int) "zero chunks" 0 report.Move.per_chunks;
      Alcotest.(check int) "zero bytes" 0 report.Move.state_bytes);
  Alcotest.(check int) "source untouched" 5
    (Opennf_nfs.Prads.connection_count tb.H.prads1)

let test_ping_pong_move () =
  (* Move everything away and back again; state must survive both trips
     and traffic keeps flowing. *)
  let tb = H.prads_pair ~flows:10 ~rate:500.0 ~duration:4.0 () in
  H.run_with tb ~at:1.0 (fun () ->
      ignore
        (Op_error.ok_exn
           (Move.run tb.H.fab.ctrl
              (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                 ~guarantee:Move.Loss_free ~parallel:true ())));
      Proc.sleep 1.0;
      ignore
        (Op_error.ok_exn
           (Move.run tb.H.fab.ctrl
              (Move.spec ~src:tb.H.nf2 ~dst:tb.H.nf1 ~filter:Filter.any
                 ~guarantee:Move.Loss_free ~parallel:true ()))));
  Alcotest.(check int) "state home again" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  Alcotest.(check int) "none left behind" 0
    (Opennf_nfs.Prads.connection_count tb.H.prads2);
  H.assert_loss_free tb

let test_concurrent_disjoint_moves () =
  (* Two moves with disjoint filters run simultaneously on the same
     controller without interfering. *)
  let tb = H.prads_pair ~flows:40 ~rate:1000.0 () in
  let half_a = Filter.of_src_prefix (Ipaddr.Prefix.of_string "10.1.0.0/25") in
  let half_b = Filter.of_src_prefix (Ipaddr.Prefix.of_string "10.1.0.128/25") in
  H.run_with tb ~at:1.0 (fun () ->
      let m1 =
        Move.start tb.H.fab.ctrl
          (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:half_a
             ~guarantee:Move.Loss_free ~parallel:true ())
      in
      let m2 =
        Move.start tb.H.fab.ctrl
          (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:half_b
             ~guarantee:Move.Loss_free ~parallel:true ())
      in
      let read m = Op_error.ok_exn (Proc.Ivar.read m) in
      let r1 = read m1 and r2 = read m2 in
      Alcotest.(check int) "all flows covered" 40
        (r1.Move.per_chunks + r2.Move.per_chunks));
  Alcotest.(check int) "all at destination" 40
    (Opennf_nfs.Prads.connection_count tb.H.prads2);
  H.assert_loss_free tb

let test_compressed_move_is_still_loss_free () =
  let tb = H.prads_pair ~flows:30 () in
  H.run_with tb ~at:1.0 (fun () ->
      ignore
        (Op_error.ok_exn
           (Move.run tb.H.fab.ctrl
              (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                 ~guarantee:Move.Loss_free ~parallel:true ~compress:true ()))));
  H.assert_loss_free tb;
  Alcotest.(check int) "all state arrived intact" 30
    (Opennf_nfs.Prads.connection_count tb.H.prads2)

let test_move_under_source_overload () =
  (* The source NF is saturated (queue growing) when the move starts:
     loss-freedom must still hold. *)
  let fab = Fabric.create ~seed:3 () in
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let slow = { Costs.prads with Costs.proc_time = 0.002 } in
  let nf1, _ =
    Fabric.add_nf fab ~name:"prads1" ~impl:(Opennf_nfs.Prads.impl prads1)
      ~costs:slow
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"prads2" ~impl:(Opennf_nfs.Prads.impl prads2)
      ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create () in
  (* 1000 pkt/s against a 500 pkt/s instance. *)
  let schedule, _ =
    Opennf_trace.Gen.steady_flows gen ~flows:20 ~rate:1000.0 ~start:0.05
      ~duration:2.0 ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  Engine.schedule_at fab.engine 1.0 (fun () ->
      Proc.spawn fab.engine (fun () ->
          ignore
            (Op_error.ok_exn
               (Move.run fab.ctrl
                  (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any
                     ~guarantee:Move.Loss_free ~parallel:true ())))));
  Fabric.run fab;
  let lost = Audit.lost fab.audit ~nfs:[ "prads1"; "prads2" ] in
  Alcotest.(check (list int)) "loss-free under overload" [] lost;
  Alcotest.(check (list int)) "no duplicates" [] (Audit.duplicated fab.audit)

let test_move_report_accounting () =
  let tb = H.prads_pair ~flows:25 () in
  H.run_with tb ~at:1.0 (fun () ->
      let report =
        Op_error.ok_exn
          (Move.run tb.H.fab.ctrl
             (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                ~scope:[ Opennf_state.Scope.Per; Opennf_state.Scope.Multi ]
                ~guarantee:Move.Loss_free ()))
      in
      Alcotest.(check int) "per-flow chunks" 25 report.Move.per_chunks;
      Alcotest.(check bool) "multi-flow chunks present" true
        (report.Move.multi_chunks > 0);
      Alcotest.(check bool) "bytes accounted" true (report.Move.state_bytes > 0);
      Alcotest.(check bool) "duration positive" true (Move.duration report > 0.0);
      Alcotest.(check string) "names" "prads1" report.Move.rp_src)

let test_spec_validation () =
  let tb = H.prads_pair () in
  (* An impossible spec is a typed error from run, not an exception. *)
  H.run_with tb ~at:1.0 (fun () ->
      match
        Move.run tb.H.fab.ctrl
          (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
             ~scope:[ Opennf_state.Scope.Per; Opennf_state.Scope.Multi ]
             ~early_release:true ())
      with
      | Error (Op_error.Bad_spec _) -> ()
      | Ok _ -> Alcotest.fail "ER over both scopes must be rejected"
      | Error e -> Alcotest.fail ("unexpected error: " ^ Op_error.to_string e));
  (* ER implies parallel. *)
  let spec =
    Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any ~early_release:true ()
  in
  Alcotest.(check bool) "ER implies PL" true spec.Move.options.Op_options.parallel

(* Early release with the move started inside the flow-arrival window:
   flows keep appearing at the source after the late-lock snapshot. At
   this config a flow first seen after the snapshot used to be processed
   at the source (LF+ER stranded its state there), and under OP the
   last source-bound packet could belong to it, so the handoff waited
   forever. The move must return, lose nothing, and leave every flow's
   state at the destination only. *)
let test_er_move_inside_arrival_window guarantee ~parallel () =
  let tb =
    H.prads_pair ~seed:6501 ~flows:59 ~rate:200.0 ~packet_out_rate:2000.0 ()
  in
  let returned = ref false in
  H.run_with tb ~at:0.568 (fun () ->
      ignore
        (Op_error.ok_exn
           (Move.run tb.H.fab.ctrl
              (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                 ~guarantee ~parallel ~early_release:true ())));
      returned := true);
  Alcotest.(check bool) "move returned" true !returned;
  H.assert_loss_free tb;
  Alcotest.(check int) "no connection left at the source" 0
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  let listed prads =
    List.filter_map Filter.exact_key
      ((Opennf_nfs.Prads.impl prads).Opennf_sb.Nf_api.list_perflow Filter.any)
  in
  let at_dst = listed tb.H.prads2 in
  Alcotest.(check (list string)) "no flow has state on both instances" []
    (List.filter_map
       (fun k ->
         if List.exists (Flow.equal k) at_dst then Some (Flow.to_string k)
         else None)
       (listed tb.H.prads1))

(* A no-guarantee move has nobody listening to the source's events, but
   with early release its get still locks the move filter there; the
   lock must not outlive the move and drop later traffic the source is
   given for flows it never saw. *)
let test_ng_er_move_unlocks_source () =
  let tb = H.prads_pair ~flows:10 ~rate:500.0 ~duration:0.5 () in
  H.run_with tb ~at:0.3 (fun () ->
      ignore
        (Op_error.ok_exn
           (Move.run tb.H.fab.ctrl
              (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                 ~guarantee:Move.No_guarantee ~early_release:true ()))));
  let fresh =
    Flow.make ~src:(ip 198 51 100 7) ~dst:(ip 172 16 0 1) ~sport:4242 ~dport:80
      ()
  in
  let before = Opennf_sb.Runtime.processed_count tb.H.rt1 in
  Opennf_sb.Runtime.receive tb.H.rt1
    (Packet.create ~id:1_000_000 ~key:fresh ~flags:[ Packet.Syn ] ~sent_at:0.0
       ());
  Fabric.run tb.H.fab;
  Alcotest.(check int) "a new flow is processed at the old source"
    (before + 1)
    (Opennf_sb.Runtime.processed_count tb.H.rt1)

let suite =
  [
    Alcotest.test_case "OP move of idle flows completes" `Quick
      test_op_move_of_idle_flows_completes;
    Alcotest.test_case "empty-filter move is a no-op" `Quick
      test_move_with_no_matching_state;
    Alcotest.test_case "ping-pong move" `Quick test_ping_pong_move;
    Alcotest.test_case "concurrent disjoint moves" `Quick
      test_concurrent_disjoint_moves;
    Alcotest.test_case "compressed move is loss-free" `Quick
      test_compressed_move_is_still_loss_free;
    Alcotest.test_case "move under source overload" `Quick
      test_move_under_source_overload;
    Alcotest.test_case "report accounting" `Quick test_move_report_accounting;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    (* ER implies PL today (Op_options.make); the explicit-PL cells keep
       covering the combination should that coupling change. *)
    Alcotest.test_case "LF+ER inside arrival window (6501)" `Quick
      (test_er_move_inside_arrival_window Move.Loss_free ~parallel:false);
    Alcotest.test_case "LF+PL+ER inside arrival window (6501)" `Quick
      (test_er_move_inside_arrival_window Move.Loss_free ~parallel:true);
    Alcotest.test_case "OP+ER inside arrival window (6501)" `Quick
      (test_er_move_inside_arrival_window Move.Order_preserving
         ~parallel:false);
    Alcotest.test_case "OP+PL+ER inside arrival window (6501)" `Quick
      (test_er_move_inside_arrival_window Move.Order_preserving ~parallel:true);
    Alcotest.test_case "NG+ER move leaves the source unlocked" `Quick
      test_ng_er_move_unlocks_source;
  ]
