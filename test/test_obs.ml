(* Observability layer (ISSUE 5): span well-formedness, trace
   determinism across runs, the disabled path's zero-allocation budget, and
   reconciliation of the metrics registry against operation reports. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
module Obs = Opennf_obs
module Stats = Opennf_util.Stats
open Opennf_net
open Opennf

(* A small seeded testbed: two PRADS monitors, steady traffic, one
   loss-free parallel move submitted through the scheduler (so op,
   transfer, sched, southbound, channel and audit events all hit the
   same trace). *)
let traced_scenario ?(trace = true) () =
  let obs = Obs.Hub.create ~trace () in
  let fab = Fabric.create ~seed:5 ~obs () in
  let p1 = Opennf_nfs.Prads.create () in
  let p2 = Opennf_nfs.Prads.create () in
  let nf1, _ =
    Fabric.add_nf fab ~name:"prads1" ~impl:(Opennf_nfs.Prads.impl p1)
      ~costs:Costs.prads
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"prads2" ~impl:(Opennf_nfs.Prads.impl p2)
      ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create () in
  let schedule, _ =
    Opennf_trace.Gen.steady_flows gen ~flows:20 ~rate:2000.0 ~start:0.05
      ~duration:0.6 ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  let report = ref None in
  Engine.schedule_at fab.engine 0.3 (fun () ->
      Proc.spawn fab.engine (fun () ->
          let ivar =
            Move.submit_sharded fab.group
              (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any
                 ~guarantee:Move.Loss_free ~parallel:true ())
          in
          report := Some (Op_error.ok_exn (Proc.Ivar.read ivar))));
  Fabric.run fab;
  (obs, Option.get !report)

(* --- span well-formedness ------------------------------------------------ *)

let test_well_formed () =
  let obs, _ = traced_scenario () in
  let tr = Obs.Hub.trace obs in
  Alcotest.(check bool) "trace recorded events" true (Obs.Trace.length tr > 0);
  let open_vt = Hashtbl.create 64 in
  (* id -> open stamp *)
  let ever = Hashtbl.create 64 in
  (* every id ever opened *)
  let last_vt = ref 0.0 in
  Obs.Trace.iter tr (fun ev ->
      Alcotest.(check bool) "vt non-negative" true (ev.Obs.Trace.vt >= 0.0);
      Alcotest.(check bool)
        "vt non-decreasing in emission order" true
        (ev.Obs.Trace.vt >= !last_vt);
      last_vt := ev.Obs.Trace.vt;
      (if ev.Obs.Trace.parent <> 0 then
         Alcotest.(check bool)
           "parent span opened earlier" true
           (Hashtbl.mem ever ev.Obs.Trace.parent));
      match ev.Obs.Trace.kind with
      | Obs.Trace.Begin ->
        Alcotest.(check bool) "span id positive" true (ev.Obs.Trace.id > 0);
        Alcotest.(check bool)
          "span id fresh" false
          (Hashtbl.mem ever ev.Obs.Trace.id);
        Hashtbl.replace ever ev.Obs.Trace.id ();
        Hashtbl.replace open_vt ev.Obs.Trace.id ev.Obs.Trace.vt
      | Obs.Trace.End -> (
        match Hashtbl.find_opt open_vt ev.Obs.Trace.id with
        | None -> Alcotest.fail "close without matching open"
        | Some opened ->
          Alcotest.(check bool)
            "span duration non-negative" true
            (ev.Obs.Trace.vt >= opened);
          Hashtbl.remove open_vt ev.Obs.Trace.id)
      | Obs.Trace.Instant -> ());
  Alcotest.(check int) "every span closed" 0 (Hashtbl.length open_vt)

(* --- determinism --------------------------------------------------------- *)

let chrome_of_run () =
  let obs, _ = traced_scenario () in
  Obs.Export.chrome (Obs.Hub.trace obs)

let test_deterministic () =
  let a = chrome_of_run () in
  let b = chrome_of_run () in
  Alcotest.(check bool) "chrome export non-trivial" true
    (String.length a > 100);
  Alcotest.(check string) "two seeded runs byte-identical" a b

(* --- disabled path: zero allocations ------------------------------------- *)

let test_disabled_alloc () =
  let tr = Obs.Trace.disabled in
  let m = Obs.Metrics.null in
  let c = Obs.Metrics.counter m "x.counter" in
  let g = Obs.Metrics.gauge m "x.gauge" in
  let h = Obs.Metrics.hist m "x.hist" in
  let per_op =
    Helpers.minor_words_per ~iters:100_000 (fun () ->
        (* The shape every instrumented hot path has: handle updates plus
           an enabled-guard around anything that would allocate. *)
        Obs.Metrics.incr c;
        Obs.Metrics.add c 3;
        Obs.Metrics.set g 1.0;
        Obs.Metrics.observe h 0.5;
        if Obs.Trace.enabled tr then begin
          let s =
            Obs.Trace.span_open tr ~cat:"op" ~name:"never"
              ~attrs:[| ("k", Obs.Trace.Int 1) |] ()
          in
          Obs.Trace.span_close tr s ()
        end;
        let s = Obs.Trace.span_open tr ~cat:"op" ~name:"never" () in
        Obs.Trace.span_close tr s ();
        Obs.Trace.instant tr ~cat:"op" ~name:"never" ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "disabled path allocates ~0 minor words/op (got %.3f)"
       per_op)
    true (per_op < 1.0)

(* --- metrics vs operation reports ---------------------------------------- *)

let test_metrics_reconcile () =
  let obs, report = traced_scenario ~trace:false () in
  let m = Obs.Hub.metrics obs in
  let cv = Obs.Metrics.counter_value m in
  Alcotest.(check int) "op.started" 1 (cv "op.started");
  Alcotest.(check int) "op.completed" 1 (cv "op.completed");
  Alcotest.(check int) "op.failed" 0 (cv "op.failed");
  Alcotest.(check int) "sched.submitted" 1 (cv "sched.submitted");
  Alcotest.(check int) "sched.admitted" 1 (cv "sched.admitted");
  Alcotest.(check int)
    "op.chunks matches the move report"
    (report.Move.per_chunks + report.Move.multi_chunks)
    (cv "op.chunks");
  Alcotest.(check int)
    "op.bytes matches the move report" report.Move.state_bytes (cv "op.bytes");
  Alcotest.(check bool)
    "southbound taps saw the transfer" true
    (cv "sb.requests" > 0 && cv "sb.replies" > 0 && cv "ch.msgs" > 0);
  (* trace:false — nothing must have landed in the (disabled) tracer. *)
  Alcotest.(check int)
    "disabled tracer stayed empty" 0
    (Obs.Trace.length (Obs.Hub.trace obs))

(* A tracing run still exports valid, parseable-enough JSON: balanced
   braces/brackets and one line per event plus the envelope. *)
let test_chrome_shape () =
  let obs, _ = traced_scenario () in
  let s = Obs.Export.chrome (Obs.Hub.trace obs) in
  let count ch = String.fold_left (fun n c -> if c = ch then n + 1 else n) 0 s in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']');
  Alcotest.(check bool) "envelope present" true
    (String.length s >= 15 && String.sub s 0 15 = "{\"traceEvents\":")

(* --- Stats satellites: Summary.merge and the log-bucket histogram -------- *)

let summary_merge_prop =
  QCheck.Test.make ~name:"Summary.merge == sequential add" ~count:200
    QCheck.(pair (list (float_range 0.0 1000.0)) (list (float_range 0.0 1000.0)))
    (fun (xs, ys) ->
      let a = Stats.Summary.create () in
      let b = Stats.Summary.create () in
      let all = Stats.Summary.create () in
      List.iter (Stats.Summary.add a) xs;
      List.iter (Stats.Summary.add b) ys;
      List.iter (Stats.Summary.add all) (xs @ ys);
      Stats.Summary.merge a b;
      let close x y = Float.abs (x -. y) <= 1e-6 *. (1.0 +. Float.abs y) in
      Stats.Summary.count a = Stats.Summary.count all
      && close (Stats.Summary.mean a) (Stats.Summary.mean all)
      && close (Stats.Summary.stddev a) (Stats.Summary.stddev all)
      && (xs = [] && ys = []
         || Stats.Summary.min a = Stats.Summary.min all
            && Stats.Summary.max a = Stats.Summary.max all))

(* Merged histogram quantiles stay within the documented relative error
   of the exact sample quantiles (1.5x slack over the one-bucket bound
   for rank rounding at small counts). *)
let histogram_merge_prop =
  QCheck.Test.make ~name:"Histogram.merge quantiles vs exact samples"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 100) (float_range 1e-6 100.0))
        (list_of_size Gen.(1 -- 100) (float_range 1e-6 100.0)))
    (fun (xs, ys) ->
      let ha = Stats.Histogram.create () in
      let hb = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add ha) xs;
      List.iter (Stats.Histogram.add hb) ys;
      Stats.Histogram.merge ha hb;
      let exact = Stats.Reservoir.create () in
      List.iter (Stats.Reservoir.add exact) (xs @ ys);
      let tol = Stats.Histogram.relative_error *. 1.5 in
      let ok q =
        let approx = Stats.Histogram.quantile ha q in
        let truth = Stats.Reservoir.percentile exact q in
        approx <= truth *. tol && truth <= approx *. tol
      in
      Stats.Histogram.count ha = List.length xs + List.length ys
      && ok 0.5 && ok 0.9 && ok 0.99)

let suite =
  [
    Alcotest.test_case "spans well-formed" `Quick test_well_formed;
    Alcotest.test_case "trace deterministic across runs" `Quick
      test_deterministic;
    Alcotest.test_case "disabled path allocation budget" `Quick
      test_disabled_alloc;
    Alcotest.test_case "metrics reconcile with reports" `Quick
      test_metrics_reconcile;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_shape;
    QCheck_alcotest.to_alcotest summary_merge_prop;
    QCheck_alcotest.to_alcotest histogram_merge_prop;
  ]
