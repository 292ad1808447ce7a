(* Fault injection: crash-at-every-phase rollback for moves, resilient
   southbound calls under lossy/duplicating control channels, and the
   primitives (read_timeout, fill_if_empty, fault plans) they rest on. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Faults = Opennf_sim.Faults
open Opennf_net
open Opennf
module H = Helpers

(* A resilience policy snappy enough for short tests but tolerant of the
   testbed's normal control-plane latencies. *)
let resilience =
  {
    Controller.call_timeout = 0.05;
    max_retries = 2;
    backoff = 0.01;
    liveness_misses = 3;
    probe_period = 0.1;
  }

(* Generous variant: never declares an instance dead by mistake under
   heavy jitter; used for the link-fault properties. *)
let patient =
  {
    Controller.call_timeout = 0.5;
    max_retries = 3;
    backoff = 0.05;
    liveness_misses = 100;
    probe_period = 0.5;
  }

(* --- primitives --------------------------------------------------------- *)

let test_read_timeout () =
  let engine = Engine.create () in
  let observed = ref [] in
  Proc.spawn engine (fun () ->
      let ivar = Proc.Ivar.create engine in
      Engine.schedule engine ~delay:0.5 (fun () -> Proc.Ivar.fill ivar 42);
      (match Proc.Ivar.read_timeout ivar ~timeout:0.1 with
      | None -> observed := "miss" :: !observed
      | Some _ -> observed := "early" :: !observed);
      (match Proc.Ivar.read_timeout ivar ~timeout:1.0 with
      | Some 42 -> observed := "hit" :: !observed
      | Some _ | None -> observed := "wrong" :: !observed));
  Engine.run engine;
  Alcotest.(check (list string)) "timeout then value" [ "hit"; "miss" ]
    !observed

let test_fill_if_empty () =
  let engine = Engine.create () in
  let ivar = Proc.Ivar.create engine in
  Alcotest.(check bool) "first fill" true (Proc.Ivar.fill_if_empty ivar 1);
  Alcotest.(check bool) "second fill ignored" false
    (Proc.Ivar.fill_if_empty ivar 2);
  Engine.run engine;
  Alcotest.(check (option int)) "first value wins" (Some 1)
    (Proc.Ivar.peek ivar)

let test_fault_plans_are_deterministic () =
  let plans seed =
    let engine = Engine.create () in
    let f = Faults.create engine ~seed () in
    Faults.set_link f ~name:"l" ~drop:0.2 ~dup:0.2 ~jitter:0.001 ();
    List.init 64 (fun _ -> Faults.plan f ~link:"l")
  in
  Alcotest.(check bool) "same seed, same schedule" true
    (plans 11 = plans 11);
  Alcotest.(check bool) "different seed, different schedule" true
    (plans 11 <> plans 12)

let test_no_profile_draws_nothing () =
  let engine = Engine.create () in
  let f = Faults.create engine () in
  let p = List.init 16 (fun _ -> Faults.plan f ~link:"quiet") in
  Alcotest.(check bool) "all pass-through" true
    (List.for_all (fun x -> x = (1, 0.0)) p);
  Alcotest.(check int) "nothing dropped" 0 (Faults.dropped_count f)

(* --- typed errors from the southbound API ------------------------------- *)

let test_del_allflows_is_bad_spec () =
  let tb = H.prads_pair ~flows:5 () in
  let saw = ref None in
  H.run_with tb ~at:1.0 (fun () ->
      saw :=
        Some (Controller.del tb.H.fab.ctrl tb.H.nf1 ~scope:Opennf_state.Scope.All []));
  match !saw with
  | Some (Error (Op_error.Bad_spec _)) -> ()
  | _ -> Alcotest.fail "del ~scope:All must be Bad_spec"

let test_call_timeout_when_replies_drop () =
  (* The source's reply channel eats everything; with liveness disabled
     (high miss threshold) the call must surface as Timeout. *)
  let tb =
    H.prads_pair ~flows:5 ~resilience:{ resilience with liveness_misses = 99 } ()
  in
  Faults.set_link tb.H.fab.faults ~name:"prads1->ctrl" ~drop:1.0 ();
  let saw = ref None in
  H.run_with tb ~at:1.0 (fun () ->
      saw :=
        Some
          (Controller.get tb.H.fab.ctrl tb.H.nf1 ~scope:Opennf_state.Scope.Per
             Filter.any));
  match !saw with
  | Some (Error (Op_error.Timeout { nf = "prads1"; _ })) -> ()
  | _ -> Alcotest.fail "expected Timeout from a reply blackhole"

let test_liveness_declares_death () =
  let tb = H.prads_pair ~flows:5 ~rate:200.0 ~resilience () in
  Faults.crash_at tb.H.fab.faults ~node:"prads1" 0.9;
  let deaths = ref [] in
  Controller.on_nf_death tb.H.fab.ctrl (fun name -> deaths := name :: !deaths);
  let saw = ref None in
  H.run_with tb ~at:1.0 (fun () ->
      saw :=
        Some
          (Controller.get tb.H.fab.ctrl tb.H.nf1 ~scope:Opennf_state.Scope.Per
             Filter.any));
  (match !saw with
  | Some (Error (Op_error.Nf_crashed { nf = "prads1" })) -> ()
  | _ -> Alcotest.fail "expected Nf_crashed after liveness misses");
  Alcotest.(check (list string)) "death callback fired" [ "prads1" ] !deaths;
  Alcotest.(check bool) "marked dead" false
    (Controller.nf_alive tb.H.fab.ctrl tb.H.nf1)

(* --- crash-at-every-phase move rollback --------------------------------- *)

(* Run a move at t=1.0 under [resilience], crashing [node] when [phase]
   fires. Returns (result, testbed, survivor-processed-before-crash). *)
let crash_at_phase ~node ~phase ?(guarantee = Move.Loss_free) () =
  let tb = H.prads_pair ~flows:10 ~rate:500.0 ~duration:2.5 ~resilience () in
  let result = ref None in
  let processed_at_crash = ref (-1) in
  H.run_with tb ~at:1.0 (fun () ->
      result :=
        Some
          (Move.run tb.H.fab.ctrl
             (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                ~guarantee
                ~on_phase:(fun p ->
                  if p = phase then begin
                    Faults.crash_now tb.H.fab.faults ~node;
                    processed_at_crash :=
                      Opennf_sb.Runtime.processed_count
                        (if node = "prads1" then tb.H.rt2 else tb.H.rt1)
                  end)
                ())));
  (Option.get !result, tb, !processed_at_crash)

let check_crashed ~nf = function
  | Error (Op_error.Nf_crashed { nf = n }) ->
    Alcotest.(check string) "crashed instance reported" nf n
  | Ok _ -> Alcotest.fail "move must not succeed across a crash"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Op_error.to_string e)

(* After a rollback the survivor must keep processing traffic: the flows
   were re-routed, not blackholed. *)
let check_survivor_kept_processing ~survivor_rt ~processed_at_crash =
  Alcotest.(check bool) "hook saw the crash" true (processed_at_crash >= 0);
  Alcotest.(check bool) "survivor processed packets after the rollback" true
    (Opennf_sb.Runtime.processed_count survivor_rt > processed_at_crash)

let test_src_crash_during_get () =
  (* Source dies before exporting anything: nothing was captured, the
     destination starts fresh, and traffic must flow to it. *)
  let result, tb, p = crash_at_phase ~node:"prads1" ~phase:Move.Transfer_started () in
  check_crashed ~nf:"prads1" result;
  check_survivor_kept_processing ~survivor_rt:tb.H.rt2 ~processed_at_crash:p

let test_dst_crash_during_put () =
  (* Destination dies after the source's state was captured and deleted:
     the rollback must re-install every chunk on the source. *)
  let result, tb, p = crash_at_phase ~node:"prads2" ~phase:Move.State_deleted () in
  check_crashed ~nf:"prads2" result;
  Alcotest.(check int) "all state restored at the source" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  Alcotest.(check int) "nothing left at the dead destination" 0
    (Opennf_nfs.Prads.connection_count tb.H.prads2);
  check_survivor_kept_processing ~survivor_rt:tb.H.rt1 ~processed_at_crash:p

let test_dst_crash_after_install () =
  (* Destination dies after acking every put: the final route toward it
     is already installed, so the rollback must retire that rule (it
     outranks the base route) or the survivor never sees traffic. *)
  let result, tb, p = crash_at_phase ~node:"prads2" ~phase:Move.State_installed () in
  check_crashed ~nf:"prads2" result;
  Alcotest.(check int) "state restored at the source" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  check_survivor_kept_processing ~survivor_rt:tb.H.rt1 ~processed_at_crash:p

let test_dst_crash_at_phase1 () =
  let result, tb, p =
    crash_at_phase ~node:"prads2" ~phase:Move.Phase1_installed
      ~guarantee:Move.Order_preserving ()
  in
  check_crashed ~nf:"prads2" result;
  Alcotest.(check int) "state restored at the source" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  check_survivor_kept_processing ~survivor_rt:tb.H.rt1 ~processed_at_crash:p

let test_dst_crash_at_phase2 () =
  let result, tb, p =
    crash_at_phase ~node:"prads2" ~phase:Move.Phase2_installed
      ~guarantee:Move.Order_preserving ()
  in
  check_crashed ~nf:"prads2" result;
  Alcotest.(check int) "state restored at the source" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads1);
  check_survivor_kept_processing ~survivor_rt:tb.H.rt1 ~processed_at_crash:p

let test_fault_free_resilient_move_is_clean () =
  (* Resilience armed but no fault registered: the move must behave like
     a plain loss-free move. *)
  let tb = H.prads_pair ~flows:10 ~rate:500.0 ~resilience () in
  H.run_with tb ~at:1.0 (fun () ->
      match
        Move.run tb.H.fab.ctrl
          (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
             ~guarantee:Move.Loss_free ())
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Op_error.to_string e));
  H.assert_loss_free tb;
  Alcotest.(check int) "state moved" 10
    (Opennf_nfs.Prads.connection_count tb.H.prads2)

(* --- streaming-get dedup under a duplicating link ------------------------ *)

(* Every message the source sends the controller arrives twice. *)
let duplicate_replies b =
  Faults.set_link b.H.dfab.faults ~name:"src->ctrl" ~dup:1.0 ()

let test_streaming_get_drops_replayed_pieces () =
  let flows = 60 in
  let obs = Opennf_obs.Hub.create ~metrics:true () in
  let b = H.dummy_pair ~obs ~flows () in
  duplicate_replies b;
  let export_order =
    List.map Filter.to_string
      ((Opennf_nfs.Dummy.impl b.H.d_src).Opennf_sb.Nf_api.list_perflow
         Filter.any)
  in
  let fired = Hashtbl.create flows in
  let result = ref [] in
  H.run_at b.H.dfab ~at:0.1 (fun () ->
      match
        Controller.get b.H.dfab.ctrl b.H.src ~scope:Opennf_state.Scope.Per
          ~on_piece:(fun flowid _ ->
            let k = Filter.to_string flowid in
            Hashtbl.replace fired k
              (1 + Option.value ~default:0 (Hashtbl.find_opt fired k)))
          Filter.any
      with
      | Ok chunks -> result := List.map (fun (f, _) -> Filter.to_string f) chunks
      | Error e -> Alcotest.fail (Op_error.to_string e));
  Alcotest.(check (list string))
    "each flow once, in export order" export_order !result;
  Alcotest.(check int) "on_piece saw every flow" flows (Hashtbl.length fired);
  Hashtbl.iter
    (fun k n -> Alcotest.(check int) ("on_piece once for " ^ k) 1 n)
    fired;
  (* Every piece and the closing Done were duplicated; only the piece
     replays reach the pending get. *)
  Alcotest.(check int) "every reply duplicated" (flows + 1)
    (Faults.duplicated_count b.H.dfab.faults);
  Alcotest.(check int) "ctrl.dup_pieces counts the replays" flows
    (Opennf_obs.Metrics.counter_value (Opennf_obs.Hub.metrics obs)
       "ctrl.dup_pieces")

(* A parallel (streaming) loss-free move of dummy flows; returns the
   destination's flow ids, its import count and a digest of its state
   and the move report. *)
let dummy_parallel_move ~dup =
  let b = H.dummy_pair ~flows:200 () in
  if dup then duplicate_replies b;
  let report = ref None in
  H.run_at b.H.dfab ~at:0.1 (fun () ->
      match
        Move.run b.H.dfab.ctrl
          (Move.spec ~src:b.H.src ~dst:b.H.dst ~filter:Filter.any
             ~guarantee:Move.Loss_free ~parallel:true ())
      with
      | Ok r -> report := Some r
      | Error e -> Alcotest.fail (Op_error.to_string e));
  let r = Option.get !report in
  let impl = Opennf_nfs.Dummy.impl b.H.d_dst in
  let flowids = impl.Opennf_sb.Nf_api.list_perflow Filter.any in
  let open Opennf_util.Hashing in
  let digest =
    List.fold_left
      (fun h flowid ->
        match impl.Opennf_sb.Nf_api.export_perflow flowid with
        | Some c -> combine h (fnv1a64 c.Opennf_state.Chunk.data)
        | None -> Alcotest.fail "destination lost a flow")
      (combine (Int64.of_int r.Move.per_chunks) (Int64.of_int r.Move.state_bytes))
      flowids
  in
  ( List.map Filter.to_string flowids,
    Opennf_nfs.Dummy.imported_count b.H.d_dst,
    digest )

let test_parallel_move_under_duplicating_link () =
  let src_flows =
    List.map (fun k -> Filter.to_string (Filter.of_key (H.dummy_key k)))
      (List.init 200 Fun.id)
    |> List.sort String.compare
  in
  let clean_flows, clean_imports, clean_digest = dummy_parallel_move ~dup:false in
  let flows, imports, digest = dummy_parallel_move ~dup:true in
  Alcotest.(check (list string))
    "destination holds exactly the source's flows" src_flows
    (List.sort String.compare flows);
  Alcotest.(check int) "each flow imported once" 200 imports;
  Alcotest.(check (list string)) "same flows as fault-free" clean_flows flows;
  Alcotest.(check int) "same imports as fault-free" clean_imports imports;
  Alcotest.(check int64) "state digest equals fault-free" clean_digest digest

(* --- guarantees under link faults (randomized) -------------------------- *)

type link_cfg = {
  seed : int;
  flows : int;
  rate : float;
  dup : float;
  jitter : float;
}

let link_cfg_gen =
  QCheck.Gen.(
    map
      (fun (seed, flows, rate_k, dup_k, jitter_k) ->
        {
          seed;
          flows = 5 + flows;
          rate = 200.0 +. (100.0 *. float_of_int rate_k);
          dup = 0.05 *. float_of_int dup_k;
          jitter = 0.0005 *. float_of_int jitter_k;
        })
      (tup5 (int_bound 10_000) (int_bound 30) (int_bound 8) (int_bound 6)
         (int_bound 4)))

let print_link_cfg c =
  Printf.sprintf "{seed=%d flows=%d rate=%.0f dup=%.2f jitter=%.4f}" c.seed
    c.flows c.rate c.dup c.jitter

let link_cfg_arb = QCheck.make ~print:print_link_cfg link_cfg_gen

(* Jitter and duplication on every controller<->NF channel. Drops are
   excluded: retries recover from them, but only by re-sending whole
   requests, which legitimately re-processes control work; dup/jitter
   must be absorbed with no observable difference. *)
let fault_control_links tb ~dup ~jitter =
  List.iter
    (fun name ->
      Faults.set_link tb.H.fab.faults ~name ~dup ~jitter ())
    [ "ctrl->prads1"; "prads1->ctrl"; "ctrl->prads2"; "prads2->ctrl" ]

let run_faulted_move c ~guarantee =
  let tb =
    H.prads_pair ~seed:c.seed ~flows:c.flows ~rate:c.rate ~resilience:patient ()
  in
  fault_control_links tb ~dup:c.dup ~jitter:c.jitter;
  H.run_with tb ~at:0.6 (fun () ->
      match
        Move.run tb.H.fab.ctrl
          (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any ~guarantee ())
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Op_error.to_string e));
  tb

let no_loss tb =
  Audit.lost tb.H.fab.audit ~nfs:H.nf_names = []
  && Audit.duplicated tb.H.fab.audit = []

let prop_loss_free_under_link_faults =
  QCheck.Test.make
    ~name:"loss-free move under control-channel dup+jitter (random)" ~count:15
    link_cfg_arb (fun c ->
      let tb = run_faulted_move c ~guarantee:Move.Loss_free in
      no_loss tb && Opennf_nfs.Prads.connection_count tb.H.prads1 = 0)

let prop_order_preserving_under_link_faults =
  QCheck.Test.make
    ~name:"OP move under control-channel dup+jitter (random)" ~count:10
    link_cfg_arb (fun c ->
      let tb = run_faulted_move c ~guarantee:Move.Order_preserving in
      no_loss tb
      && Audit.order_violations tb.H.fab.audit = []
      && Audit.arrival_order_violations tb.H.fab.audit = [])

(* --- handles: a fault registered after creation still applies ---------- *)

let test_link_handle_sees_later_profile () =
  let engine = Engine.create () in
  let f = Faults.create engine () in
  let ch = Channel.create engine ~latency:0.001 ~faults:f ~name:"l" () in
  let got = ref [] in
  Channel.set_handler ch (fun m -> got := m :: !got);
  Channel.send ch ~size:0 1;
  Faults.set_link f ~name:"l" ~drop:1.0 ();
  Channel.send ch ~size:0 2;
  Engine.run engine;
  Alcotest.(check (list int)) "the send after set_link is dropped" [ 1 ] !got;
  Alcotest.(check int) "counted on the channel" 1 (Channel.dropped_count ch);
  Faults.clear_link f ~name:"l";
  Channel.send ch ~size:0 3;
  Engine.run engine;
  Alcotest.(check (list int)) "clear_link restores delivery" [ 3; 1 ] !got;
  Alcotest.(check int) "one drop in all" 1 (Faults.dropped_count f)

(* A Dummy NF whose CPU takes [proc_time] per packet, recording the ids
   it processes, behind a fault plan created before any fault. *)
let cpu_bed ~proc_time =
  let engine = Engine.create () in
  let faults = Faults.create engine () in
  let d = Opennf_nfs.Dummy.create () in
  let seen = ref [] in
  let impl =
    let base = Opennf_nfs.Dummy.impl d in
    {
      base with
      Opennf_sb.Nf_api.process_packet =
        (fun p ->
          seen := p.Packet.id :: !seen;
          base.Opennf_sb.Nf_api.process_packet p);
    }
  in
  let rt =
    Opennf_sb.Runtime.create engine (Audit.create engine) ~name:"nf" ~impl
      ~costs:{ Opennf_sb.Costs.dummy with proc_time } ~faults ()
  in
  let arrive at id =
    Engine.schedule_at engine at (fun () ->
        Opennf_sb.Runtime.receive rt
          (Packet.create ~id ~key:(H.dummy_key id) ~sent_at:at ()))
  in
  (engine, faults, rt, arrive, seen)

let test_crash_after_create_stops_cpu () =
  let engine, faults, rt, arrive, seen = cpu_bed ~proc_time:0.01 in
  Faults.crash_at faults ~node:"nf" 1.0;
  arrive 0.5 1;
  arrive 1.5 2;
  Engine.run engine;
  Alcotest.(check (list int)) "only the packet before the crash" [ 1 ] !seen;
  Alcotest.(check int) "the later packet stays queued" 1
    (Opennf_sb.Runtime.queue_length rt)

let test_crash_on_cpu_loses_packet () =
  let engine, faults, rt, arrive, seen = cpu_bed ~proc_time:0.1 in
  (* Packet 1 is on the CPU from 0.95 to 1.05; the crash lands at 1.0. *)
  arrive 0.95 1;
  arrive 0.96 2;
  arrive 1.2 3;
  Faults.crash_at faults ~node:"nf" 1.0;
  Engine.run engine;
  Alcotest.(check (list int)) "nothing processed" [] !seen;
  Alcotest.(check int) "lost mid-flight, not counted" 0
    (Opennf_sb.Runtime.processed_count rt);
  Alcotest.(check int) "later packets stay queued" 2
    (Opennf_sb.Runtime.queue_length rt)

let test_hang_resumes_on_next_arrival () =
  let engine, faults, rt, arrive, seen = cpu_bed ~proc_time:0.01 in
  Faults.hang faults ~node:"nf" ~from_:1.0 ~until:2.0;
  arrive 0.5 1;
  arrive 1.1 2;
  arrive 1.2 3;
  arrive 2.5 4;
  ignore (Engine.run_until engine ~until:2.4);
  Alcotest.(check (list int)) "nothing served before the next arrival" [ 1 ]
    !seen;
  Alcotest.(check int) "queued through the hang" 2
    (Opennf_sb.Runtime.queue_length rt);
  Engine.run engine;
  Alcotest.(check (list int)) "the next arrival serves the queue in order"
    [ 1; 2; 3; 4 ] (List.rev !seen)

let suite =
  [
    Alcotest.test_case "ivar read_timeout" `Quick test_read_timeout;
    Alcotest.test_case "ivar fill_if_empty" `Quick test_fill_if_empty;
    Alcotest.test_case "fault plans deterministic" `Quick
      test_fault_plans_are_deterministic;
    Alcotest.test_case "no profile, no randomness" `Quick
      test_no_profile_draws_nothing;
    Alcotest.test_case "del all-flows is Bad_spec" `Quick
      test_del_allflows_is_bad_spec;
    Alcotest.test_case "reply blackhole times out" `Quick
      test_call_timeout_when_replies_drop;
    Alcotest.test_case "liveness declares death" `Quick
      test_liveness_declares_death;
    Alcotest.test_case "src crash during get rolls back" `Quick
      test_src_crash_during_get;
    Alcotest.test_case "dst crash during put rolls back" `Quick
      test_dst_crash_during_put;
    Alcotest.test_case "dst crash after install rolls back" `Quick
      test_dst_crash_after_install;
    Alcotest.test_case "dst crash at phase 1 rolls back" `Quick
      test_dst_crash_at_phase1;
    Alcotest.test_case "dst crash at phase 2 rolls back" `Quick
      test_dst_crash_at_phase2;
    Alcotest.test_case "fault-free resilient move is clean" `Quick
      test_fault_free_resilient_move_is_clean;
    Alcotest.test_case "streaming get drops replayed pieces" `Quick
      test_streaming_get_drops_replayed_pieces;
    Alcotest.test_case "parallel move under duplicating link" `Quick
      test_parallel_move_under_duplicating_link;
    Alcotest.test_case "link handle: later set_link drops, clear restores"
      `Quick test_link_handle_sees_later_profile;
    Alcotest.test_case "node handle: crash after create stops the CPU" `Quick
      test_crash_after_create_stops_cpu;
    Alcotest.test_case "crash on the CPU loses the packet" `Quick
      test_crash_on_cpu_loses_packet;
    Alcotest.test_case "hang: next arrival serves the queue" `Quick
      test_hang_resumes_on_next_arrival;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_loss_free_under_link_faults;
        prop_order_preserving_under_link_faults;
      ]
