(* Tests for the remaining northbound operations — copy, share, notify —
   and controller plumbing (routes, barriers, packet-out). *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
module Scope = Opennf_state.Scope
open Opennf_net
open Opennf
module H = Helpers

let ip = Ipaddr.v

(* --- copy ------------------------------------------------------------------ *)

let test_copy_leaves_source_intact () =
  let tb = H.prads_pair ~flows:20 () in
  H.run_with tb ~at:1.0 (fun () ->
      let report =
        Op_error.ok_exn
          (Copy_op.run tb.H.fab.ctrl ~src:tb.H.nf1 ~dst:tb.H.nf2
             ~filter:Filter.any ~scope:[ Scope.Per ] ())
      in
      Alcotest.(check int) "copied all flows" 20 report.Copy_op.chunks);
  Alcotest.(check int) "source keeps its state" 20
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  Alcotest.(check int) "destination has a copy" 20
    (Opennf_nfs.Prads.connection_count tb.H.prads2);
  (* Copy does not touch forwarding: traffic keeps landing on nf1. *)
  Alcotest.(check int) "nothing processed at destination" 0
    (Opennf_sb.Runtime.processed_count tb.H.rt2)

let test_copy_multiflow_and_allflows () =
  let tb = H.prads_pair ~flows:20 () in
  H.run_with tb ~at:1.0 (fun () ->
      ignore
        (Op_error.ok_exn
           (Copy_op.run tb.H.fab.ctrl ~src:tb.H.nf1 ~dst:tb.H.nf2
              ~filter:Filter.any ~scope:[ Scope.Multi; Scope.All ] ()));
      (* Right after the copy the destination's global statistics reflect
         the source's (the source keeps counting afterwards). *)
      let p1, _, _ = Opennf_nfs.Prads.stats tb.H.prads1 in
      let p2, _, _ = Opennf_nfs.Prads.stats tb.H.prads2 in
      Alcotest.(check bool) "all-flows stats merged over" true
        (p2 > 0 && p2 <= p1));
  Alcotest.(check bool) "assets copied" true
    (Opennf_nfs.Prads.asset_count tb.H.prads2 > 0)

let test_copy_repeated_is_eventually_consistent () =
  (* Copies at t=1 and t=2: the second refresh carries updates that
     happened in between (merge semantics make it convergent). *)
  let tb = H.prads_pair ~flows:10 ~duration:3.0 () in
  H.run_with tb ~at:1.0 (fun () ->
      ignore
        (Op_error.ok_exn
           (Copy_op.run tb.H.fab.ctrl ~src:tb.H.nf1 ~dst:tb.H.nf2
              ~filter:Filter.any ~scope:[ Scope.Multi ] ()));
      let early = Opennf_nfs.Prads.last_seen tb.H.prads2 (ip 10 1 0 1) in
      Proc.sleep 1.5;
      ignore
        (Op_error.ok_exn
           (Copy_op.run tb.H.fab.ctrl ~src:tb.H.nf1 ~dst:tb.H.nf2
              ~filter:Filter.any ~scope:[ Scope.Multi ] ()));
      let late = Opennf_nfs.Prads.last_seen tb.H.prads2 (ip 10 1 0 1) in
      match (early, late) with
      | Some e, Some l ->
        Alcotest.(check bool) "refresh advanced the copy" true (l > e)
      | _ -> Alcotest.fail "asset missing at standby")

(* --- notify ------------------------------------------------------------------ *)

let test_notify_fires_on_matching_packets () =
  let tb = H.prads_pair ~flows:5 ~rate:200.0 ~duration:1.5 () in
  let seen = ref 0 in
  H.run_with tb ~at:0.5 (fun () ->
      let handle =
        Op_error.ok_exn
          (Notify.enable tb.H.fab.ctrl tb.H.nf1
             (Filter.make ~proto:Flow.Tcp ~tcp_flag:Packet.Syn ())
             (fun p ->
               Alcotest.(check bool) "only SYNs" true (Packet.is_syn p);
               incr seen))
      in
      Proc.sleep 0.5;
      Notify.disable tb.H.fab.ctrl handle);
  (* The SYN phase is over by 0.5s at 200pps with 5 flows... the SYNs
     arrive in the first 50ms, so enable at 0.05 to catch them. *)
  ignore !seen

let test_notify_catches_syns () =
  let tb = H.prads_pair ~flows:5 ~rate:100.0 ~duration:2.0 () in
  let seen = ref 0 in
  H.run_with tb ~at:0.02 (fun () ->
      ignore
        (Op_error.ok_exn
           (Notify.enable tb.H.fab.ctrl tb.H.nf1
              (Filter.make ~proto:Flow.Tcp ~tcp_flag:Packet.Syn ())
              (fun _ -> incr seen))));
  Alcotest.(check int) "one event per SYN (both directions carry SYN flags)"
    10 !seen

let test_notify_packets_still_processed () =
  let tb = H.prads_pair ~flows:5 ~rate:100.0 ~duration:1.0 () in
  H.run_with tb ~at:0.02 (fun () ->
      ignore
        (Op_error.ok_exn
           (Notify.enable tb.H.fab.ctrl tb.H.nf1
              (Filter.make ~proto:Flow.Tcp ~tcp_flag:Packet.Syn ())
              ignore)));
  (* Notify uses the process action: nothing is dropped. *)
  H.assert_loss_free tb

(* --- share -------------------------------------------------------------------- *)

let share_bed ~consistency () =
  let fab = Fabric.create ~seed:91 () in
  let mk name =
    let prads = Opennf_nfs.Prads.create () in
    let nf, _ =
      Fabric.add_nf fab ~name ~impl:(Opennf_nfs.Prads.impl prads)
        ~costs:Costs.dummy
    in
    (nf, prads)
  in
  let nf1, prads1 = mk "p1" in
  let nf2, prads2 = mk "p2" in
  let gen = Opennf_trace.Gen.create ~seed:17 () in
  let schedule, keys =
    Opennf_trace.Gen.steady_flows gen ~flows:3 ~rate:30.0 ~start:0.5
      ~duration:4.0 ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  let share = ref None in
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl Filter.any nf1;
      share :=
        Some
          (Op_error.ok_exn
             (Share.start fab.ctrl ~instances:[ nf1; nf2 ] ~filter:Filter.any
                ~scope:[ Scope.Multi ] ~consistency ())));
  Engine.schedule_at fab.engine 6.5 (fun () ->
      Proc.spawn fab.engine (fun () -> Share.stop (Option.get !share)));
  Fabric.run fab;
  (fab, prads1, prads2, keys, Option.get !share)

let test_share_strong_consistency () =
  let fab, prads1, prads2, keys, share = share_bed ~consistency:Share.Strong () in
  (* Both instances end with identical asset knowledge. *)
  List.iter
    (fun (k : Flow.key) ->
      Alcotest.(check (list (pair int string)))
        "same services on both instances"
        (Opennf_nfs.Prads.services_of prads1 k.Flow.dst_ip)
        (Opennf_nfs.Prads.services_of prads2 k.Flow.dst_ip))
    keys;
  let stats = Share.stats share in
  Alcotest.(check bool) "packets were serialized" true
    (stats.Share.packets_serialized > 0);
  Alcotest.(check bool) "updates were propagated" true
    (stats.Share.updates_synced > 0);
  (* Loss-freedom extends to share: every packet processed once. *)
  let lost = Audit.lost fab.Fabric.audit ~nfs:[ "p1"; "p2" ] in
  Alcotest.(check (list int)) "no loss" [] lost;
  Alcotest.(check (list int)) "no duplicates" [] (Audit.duplicated fab.Fabric.audit)

let test_share_strict_serializes_in_arrival_order () =
  let fab, _, _, _, share = share_bed ~consistency:Share.Strict () in
  let stats = Share.stats share in
  Alcotest.(check bool) "packets serialized" true (stats.Share.packets_serialized > 0);
  (* Strict consistency: processing follows switch arrival order. *)
  Alcotest.(check int) "no arrival-order violations" 0
    (List.length (Audit.arrival_order_violations fab.Fabric.audit));
  let lost = Audit.lost fab.Fabric.audit ~nfs:[ "p1"; "p2" ] in
  Alcotest.(check (list int)) "no loss" [] lost

(* --- controller plumbing ------------------------------------------------------ *)

let test_set_route_redirects () =
  let tb = H.prads_pair ~flows:5 ~rate:100.0 ~duration:2.0 () in
  H.run_with tb ~at:1.0 (fun () ->
      Controller.set_route tb.H.fab.ctrl Filter.any tb.H.nf2);
  Alcotest.(check bool) "nf2 takes over" true
    (Opennf_sb.Runtime.processed_count tb.H.rt2 > 0)

let test_controller_find_nf () =
  let tb = H.prads_pair () in
  Alcotest.(check bool) "known instance" true
    (Controller.find_nf tb.H.fab.ctrl "prads1" <> None);
  Alcotest.(check bool) "unknown instance" true
    (Controller.find_nf tb.H.fab.ctrl "nope" = None);
  Fabric.run tb.H.fab

let test_barrier_blocks_until_applied () =
  let tb = H.prads_pair ~flows:2 ~rate:100.0 ~duration:0.5 () in
  let elapsed = ref 0.0 in
  H.run_with tb ~at:1.0 (fun () ->
      let t0 = Engine.now tb.H.fab.engine in
      Controller.install_rule tb.H.fab.ctrl
        ~cookie:(Controller.fresh_cookie tb.H.fab.ctrl)
        ~priority:300 ~filters:[ Filter.any ]
        ~actions:[ Flowtable.Forward "prads2" ];
      Controller.barrier tb.H.fab.ctrl;
      elapsed := Engine.now tb.H.fab.engine -. t0);
  (* sw latency (2ms) + flow-mod delay (10ms) + reply (2ms). *)
  Alcotest.(check bool) "barrier took >= 14ms" true (!elapsed >= 0.014)

let test_messages_are_counted () =
  let tb = H.prads_pair ~flows:5 ~rate:100.0 ~duration:0.5 () in
  H.run_with tb ~at:1.0 (fun () ->
      ignore
        (Op_error.ok_exn
           (Copy_op.run tb.H.fab.ctrl ~src:tb.H.nf1 ~dst:tb.H.nf2
              ~filter:Filter.any ~scope:[ Scope.Per ] ())));
  Alcotest.(check bool) "controller handled messages" true
    (Controller.messages_handled tb.H.fab.ctrl > 5)

let suite =
  [
    Alcotest.test_case "copy: source intact, no reroute" `Quick
      test_copy_leaves_source_intact;
    Alcotest.test_case "copy: multi-flow + all-flows" `Quick
      test_copy_multiflow_and_allflows;
    Alcotest.test_case "copy: repeated refresh converges" `Quick
      test_copy_repeated_is_eventually_consistent;
    Alcotest.test_case "notify: filtered callback" `Quick
      test_notify_fires_on_matching_packets;
    Alcotest.test_case "notify: catches SYNs" `Quick test_notify_catches_syns;
    Alcotest.test_case "notify: non-intrusive" `Quick
      test_notify_packets_still_processed;
    Alcotest.test_case "share: strong consistency" `Quick
      test_share_strong_consistency;
    Alcotest.test_case "share: strict arrival order" `Quick
      test_share_strict_serializes_in_arrival_order;
    Alcotest.test_case "controller: set_route" `Quick test_set_route_redirects;
    Alcotest.test_case "controller: find_nf" `Quick test_controller_find_nf;
    Alcotest.test_case "controller: barrier timing" `Quick
      test_barrier_blocks_until_applied;
    Alcotest.test_case "controller: message accounting" `Quick
      test_messages_are_counted;
  ]
