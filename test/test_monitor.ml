(* Runtime guarantee monitor (ISSUE 10): the streaming §5.1 checker.

   Fault-free runs — one shard and two — must be clean; the seeded
   broken-controller knobs ({!Move.break_for_test}) must each produce
   the expected finding with exact op/phase/flow context; and the
   column-fed verdict must equal the verdict over the hub trace. *)

module Proc = Opennf_sim.Proc
module Monitor = Opennf_obs.Monitor
module Hub = Opennf_obs.Hub
module Trace = Opennf_obs.Trace
module H = Helpers
open Opennf_net
open Opennf

let traced_bed ?packet_out_rate ?shards () =
  let obs = Hub.create ~trace:true () in
  (obs, H.prads_pair ?packet_out_rate ?shards ~obs ~monitor:true ())

let lf_spec ?break_for_test tb =
  Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
    ~guarantee:Move.Loss_free ?break_for_test ()

let op_spec ?break_for_test tb =
  Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
    ~guarantee:Move.Order_preserving ?break_for_test ()

let run_move tb spec =
  H.run_with tb ~at:0.5 (fun () ->
      match Move.run tb.H.fab.Fabric.ctrl spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "move failed: %a" Op_error.pp e)

(* --- fault-free runs are clean --------------------------------------------- *)

let test_clean_serial () =
  let _obs, tb = traced_bed () in
  run_move tb (lf_spec tb);
  Alcotest.(check (list reject)) "no online findings" []
    (Fabric.live_findings tb.H.fab);
  let v = Fabric.verdict tb.H.fab in
  Alcotest.(check bool) (Monitor.render v) true (Monitor.clean v)

let test_clean_sharded () =
  let tb = H.prads_pair ~shards:2 ~monitor:true () in
  H.run_with tb ~at:0.5 (fun () ->
      match
        Proc.Ivar.read
          (Move.submit_sharded tb.H.fab.Fabric.group (op_spec tb))
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "move failed: %a" Op_error.pp e);
  Alcotest.(check (list reject)) "no online findings" []
    (Fabric.live_findings tb.H.fab);
  let v = Fabric.verdict tb.H.fab in
  Alcotest.(check bool) (Monitor.render v) true (Monitor.clean v)

(* --- seeded violations ------------------------------------------------------ *)

(* The broken flush: a loss-free move that silently discards the first
   buffered packet. The monitor must report exactly one loss, pinned to
   the move and the flow that lost its packet. *)
let broken_flush_verdict () =
  let _obs, tb = traced_bed () in
  run_move tb (lf_spec ~break_for_test:Move.Drop_buffered tb);
  Fabric.verdict tb.H.fab

let test_seeded_loss () =
  let v = broken_flush_verdict () in
  Alcotest.(check int) "exactly one finding" 1 (List.length v);
  let f = List.hd v in
  Alcotest.(check string) "property" "loss"
    (Monitor.property_name f.Monitor.property);
  Alcotest.(check string) "attributed to the move" "move" f.Monitor.op;
  Alcotest.(check bool) "op span linked" true (f.Monitor.op_span <> 0);
  (* The victim is the first packet the move buffered: it was relayed
     (and last seen) the moment the source's events were armed, before
     the transfer's first phase mark — so its phase context is exactly
     the empty pre-capture window. *)
  Alcotest.(check string) "phase: before the first phase mark" ""
    f.Monitor.phase;
  Alcotest.(check string) "flow key" "172.16.0.1:80->10.1.0.3:10002/tcp"
    f.Monitor.flow;
  Alcotest.(check bool) "history non-empty" true (f.Monitor.history <> [])

let test_seeded_loss_deterministic () =
  let r1 = Monitor.render (broken_flush_verdict ()) in
  let r2 = Monitor.render (broken_flush_verdict ()) in
  Alcotest.(check string) "byte-identical report across runs" r1 r2

(* The broken handoff: an order-preserving move that releases the
   destination's buffer without waiting for the last source-bound
   packet — the §5.1.2 race. Detected online (order violations are
   decidable mid-stream), so it must surface through the live monitors,
   not just the end-of-run verdict. *)
let test_seeded_reorder () =
  let _obs, tb = traced_bed ~packet_out_rate:400.0 () in
  run_move tb (op_spec ~break_for_test:Move.Skip_order_wait tb);
  let live = Fabric.live_findings tb.H.fab in
  Alcotest.(check bool) "online finding streamed" true (live <> []);
  let v = Fabric.verdict tb.H.fab in
  let orders =
    List.filter (fun f -> f.Monitor.property = Monitor.Order) v
  in
  Alcotest.(check bool)
    (Printf.sprintf "order violation found:\n%s" (Monitor.render v))
    true (orders <> []);
  (* Each victim was evented at the source while the move ran, and then
     relayed out of order after the move had returned: the finding's
     rows lie outside any open op, so it names none, and its history
     holds the move's event row. *)
  List.iter
    (fun f ->
      Alcotest.(check string) "rows after the move closed: no op" ""
        f.Monitor.op;
      Alcotest.(check bool) "evented at the source during the move" true
        (List.exists
           (fun h ->
             String.ends_with
               ~suffix:(Printf.sprintf "event pkt=%d nf=prads1" f.Monitor.pkt)
               h)
           f.Monitor.history))
    orders;
  (* The same scenario without the broken knob is clean — the finding
     is the knob's doing, not the scenario's. *)
  let _obs, tb' = traced_bed ~packet_out_rate:400.0 () in
  run_move tb' (op_spec tb');
  let v' = Fabric.verdict tb'.H.fab in
  Alcotest.(check bool) (Monitor.render v') true (Monitor.clean v')

(* --- column-fed verdict == hub-trace verdict ----------------------------------- *)

(* [Fabric.verdict] replays the audit rows (with the hub's op spans
   interleaved when tracing); [hub_verdict] feeds a monitor the hub
   trace instead, decoding the ledger's mirror instants back into rows
   ({!Audit_oracle.feed_monitor}). On a traced run the two
   must agree finding for finding, op/phase context included; an
   untraced run of the same scenario must find the same violations, just
   without op context. One shard and two, clean and seeded. *)
let hub_verdict tr =
  let m = Monitor.create () in
  Trace.iter tr (Audit_oracle.feed_monitor m);
  Monitor.verdict m

let equivalence_run ~shards ?break_for_test ~traced () =
  let obs = Hub.create ~trace:traced () in
  let tb = H.prads_pair ~shards ~obs () in
  H.run_with tb ~at:0.5 (fun () ->
      match
        Proc.Ivar.read
          (Move.submit_sharded tb.H.fab.Fabric.group (lf_spec ?break_for_test tb))
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "move failed: %a" Op_error.pp e);
  (Fabric.verdict tb.H.fab, hub_verdict (Hub.trace obs))

let without_op_context (f : Monitor.finding) =
  { f with Monitor.op_span = 0; op = ""; phase = ""; shard = 0 }

let check_verdict_equivalence ~shards ?break_for_test ~expect_loss () =
  let columns, hub = equivalence_run ~shards ?break_for_test ~traced:true () in
  Alcotest.(check string) "rendered findings" (Monitor.render hub) (Monitor.render columns);
  Alcotest.(check bool) "identical findings" true (columns = hub);
  Alcotest.(check bool)
    (Printf.sprintf "expected %s:\n%s" (if expect_loss then "a loss" else "clean")
       (Monitor.render columns))
    expect_loss
    (List.exists (fun f -> f.Monitor.property = Monitor.Loss) columns);
  if expect_loss then
    Alcotest.(check bool) "traced findings carry op context" true
      (List.for_all (fun f -> f.Monitor.op = "move") columns);
  let untraced, _ = equivalence_run ~shards ?break_for_test ~traced:false () in
  Alcotest.(check string) "untraced run: same violations"
    (Monitor.render (List.map without_op_context columns))
    (Monitor.render (List.map without_op_context untraced))

let test_verdict_equivalence () =
  List.iter
    (fun shards ->
      check_verdict_equivalence ~shards ~expect_loss:false ();
      check_verdict_equivalence ~shards ~break_for_test:Move.Drop_buffered
        ~expect_loss:true ())
    [ 1; 2 ]

(* --- live monitor == verdict ------------------------------------------------------ *)

(* The live monitor reads rows as they are logged and op spans from the
   hub tap; the verdict replays the rows with the hub's events
   interleaved. Both must see one stream, so the live findings are
   exactly the verdict's online (order/duplicate) ones, traced or not. *)
let test_live_equals_verdict () =
  List.iter
    (fun traced ->
      let obs = Hub.create ~trace:traced () in
      let tb = H.prads_pair ~packet_out_rate:400.0 ~obs ~monitor:true () in
      run_move tb (op_spec ~break_for_test:Move.Skip_order_wait tb);
      let online =
        List.filter
          (fun f ->
            match f.Monitor.property with
            | Monitor.Order | Monitor.Duplicate -> true
            | Monitor.Loss | Monitor.Buffer_conservation -> false)
          (Fabric.verdict tb.H.fab)
        |> List.sort compare
      in
      let live = List.sort compare (Fabric.live_findings tb.H.fab) in
      let what = if traced then "traced" else "untraced" in
      Alcotest.(check bool) (what ^ ": online findings streamed") true (live <> []);
      Alcotest.(check string) (what ^ ": rendered") (Monitor.render online)
        (Monitor.render live);
      Alcotest.(check bool) (what ^ ": identical findings") true (live = online))
    [ true; false ]

(* --- tap discipline ----------------------------------------------------------- *)

let test_disabled_tap () =
  (* A tap registered on a disabled tracer must never fire (the hot
     path stays the bail-on-[on] one). *)
  let tr = Hub.trace Hub.disabled in
  let fired = ref false in
  Trace.on_event tr (fun _ -> fired := true);
  let span = Trace.span_open tr ~cat:"op" ~name:"x" () in
  Trace.instant tr ~cat:"audit" ~name:"y" ();
  Trace.span_close tr span ();
  Alcotest.(check bool) "tap never fired" false !fired

(* --- op context ------------------------------------------------------------- *)

(* A row logged after its packet's op closed occurred under no op: the
   finding it triggers names neither the op nor its shard or phase. A
   [move] span on shard 1 sees packet 1 forwarded and processed; the
   span closes; a second process of the packet is a duplicate. *)
let test_closed_op_context () =
  let m = Monitor.create () in
  let ev kind ~id ~name ~attrs =
    {
      Trace.kind;
      id;
      parent = 0;
      cat = "op";
      name;
      vt = 0.0;
      wall = 0.0;
      attrs;
    }
  in
  let row kind vt =
    Monitor.row m kind ~pkt:1 ~nf:"nf1" ~src:1 ~dst:2 ~proto:6 ~sport:10
      ~dport:80 ~vt
  in
  Monitor.op_event m
    (ev Trace.Begin ~id:7 ~name:"move" ~attrs:[| ("shard", Trace.Int 1) |]);
  row Monitor.Forward 0.1;
  row Monitor.Process 0.2;
  Monitor.op_event m (ev Trace.End ~id:7 ~name:"" ~attrs:[||]);
  row Monitor.Process 0.3;
  match Monitor.findings m with
  | [ f ] ->
    Alcotest.(check string) "property" "duplicate"
      (Monitor.property_name f.Monitor.property);
    Alcotest.(check int) "packet" 1 f.Monitor.pkt;
    Alcotest.(check string) "no op" "" f.Monitor.op;
    Alcotest.(check int) "no op span" 0 f.Monitor.op_span;
    Alcotest.(check int) "no shard" 0 f.Monitor.shard;
    Alcotest.(check string) "no phase" "" f.Monitor.phase
  | fs -> Alcotest.failf "expected one duplicate:\n%s" (Monitor.render fs)

let suite =
  [
    Alcotest.test_case "fault-free LF move: clean (serial)" `Quick
      test_clean_serial;
    Alcotest.test_case "fault-free OP move: clean (2 shards)" `Quick
      test_clean_sharded;
    Alcotest.test_case "seeded Drop_buffered: exact loss finding" `Quick
      test_seeded_loss;
    Alcotest.test_case "seeded Drop_buffered: deterministic report" `Quick
      test_seeded_loss_deterministic;
    Alcotest.test_case "seeded Skip_order_wait: online order finding" `Quick
      test_seeded_reorder;
    Alcotest.test_case "column-fed verdict == hub-trace verdict" `Quick
      test_verdict_equivalence;
    Alcotest.test_case "tap on a disabled tracer never fires" `Quick
      test_disabled_tap;
    Alcotest.test_case "live findings == verdict's online findings" `Quick
      test_live_equals_verdict;
    Alcotest.test_case "a row after its op closed names no op" `Quick
      test_closed_op_context;
  ]
