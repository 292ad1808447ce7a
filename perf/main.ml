(* The repository benchmark (see perf/README.md).

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
     main.exe --smoke [--out <dir>]

   The process started from the command line is a parent: it runs each
   measurement in a child process (this executable again, with
   [--child <variant>]) under a pinned environment, one at a time, and
   prints the result as the last line of its standard output:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   [--trace 0] reports the end-to-end metrics, [--trace 1] the
   per-layer metrics, [--smoke] runs every workload at toy sizes with
   every correctness check. The exit code is 0 only when every check
   passed. *)

module W = Workloads
module B = Beds

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* --- child ----------------------------------------------------------------

   A child prints human-readable text and machine lines starting with
   "@@", which the parent collects:
     @@e2e <name> <value> <unit>     @@layer <name> <value> <unit>
     @@count <attempted> <failed>    @@fp <virtual-results fingerprint>
     @@host <wall run p50 ms> <reference task p50 ms>
     @@fail <message> *)

let variant_of_string = function
  | "plain" -> W.Plain
  | "base" -> W.Base
  | "traced" -> W.Traced
  | "hubtrace" -> W.Hub_trace
  | "hubmetrics" -> W.Hub_metrics
  | v -> die "unknown variant %s" v

let median = Replay.median

let sum l = List.fold_left ( +. ) 0.0 l

let unit_values (acc : W.acc) name =
  Option.value ~default:[] (Hashtbl.find_opt acc.layer name)

let unit_median acc name = median (unit_values acc name)

let total (acc : W.acc) name = Option.value ~default:0.0 (Hashtbl.find_opt acc.totals name)

let ratio a b = if b > 0.0 then a /. b else 0.0

let layer name value unit = Printf.printf "@@layer %s %.17g %s\n" name value unit

(* Self time per layer of the traced run, every row but the last
   measured or attributed; "other" is the rest of the wall. *)
let self_table probe (acc : W.acc) ~dispatch_ns ~lookup_ns ~msg_ns =
  let self = Probe.self_ns probe in
  let total_ns = Probe.now_ns () -. probe.Probe.origin in
  let rows =
    [
      ("setup", self "setup", "span around bed construction");
      ("nf", self "nf", "Nf_api.impl wrapper, summed per run window");
      ("engine", total acc "engine.events" *. dispatch_ns, "events x replayed dispatch cost");
      ("flowtable", total acc "ft.lookups" *. lookup_ns, "lookups x replayed lookup cost");
      ("channel", total acc "ch.msgs" *. msg_ns, "messages x replayed send+deliver cost");
      ("check", self "check", "span around the benchmark's own checks");
      ("calib", self "calib", "span around the reference task");
      ("compact", self "compact", "span around Gc.compact");
      ("replay", self "replay", "span around the isolated replays");
    ]
  in
  let other = total_ns -. List.fold_left (fun s (_, v, _) -> s +. v) 0.0 rows in
  let rows =
    rows
    @ [
        ( "other",
          other,
          "rest: switch, NF runtime, controller, op engine, scheduler, traffic \
           generator, loop" );
      ]
  in
  print_endline "per-layer self time of the traced run:";
  Printf.printf "  %-10s %10s %7s  %s\n" "layer" "self ms" "share" "source";
  List.iter
    (fun (name, ns, how) ->
      Printf.printf "  %-10s %10.1f %6.1f%%  %s\n" name (ns /. 1e6)
        (100.0 *. ns /. total_ns) how)
    rows;
  Printf.printf "  %-10s %10.1f %6.1f%%\n" "total" (total_ns /. 1e6) 100.0;
  ratio other total_ns

let traced_report ~workload ~out probe (acc : W.acc) =
  let c =
    match acc.last with Some c -> c | None -> die "traced run measured no unit"
  in
  let replay name f = Probe.span probe ~layer:"replay" ~name f in
  let dispatch_ns = replay "engine" (fun () -> Replay.engine ~depth:acc.pending_peak) in
  let lookup_ns =
    replay "flowtable" (fun () ->
        Replay.flowtable
          ~rules:(Opennf_net.Flowtable.rules (Opennf_net.Switch.table c.B.fab.switch))
          ~keys:c.B.keys)
  in
  let msg_ns = replay "channel" (fun () -> Replay.channel ~keys:c.B.keys) in
  let nf = replay "nf" (fun () -> Replay.nf ~nf:c.B.nf ~fresh:c.B.fresh ~keys:c.B.keys) in
  let sim_ns = total acc "sim_ns" in
  let count name = layer name (unit_median acc name) "count" in
  layer "engine.pending_peak" (float_of_int acc.pending_peak) "count";
  layer "engine.dispatch_ns" dispatch_ns "ns";
  layer "flowtable.lookups" (unit_median acc "ft.lookups") "count";
  layer "flowtable.cache_hit_ratio"
    (ratio (total acc "ft.cache_hits") (total acc "ft.lookups"))
    "ratio";
  layer "flowtable.ns_per_lookup" lookup_ns "ns";
  layer "channel.msgs" (unit_median acc "ch.msgs") "count";
  layer "channel.bytes" (unit_median acc "ch.bytes") "bytes";
  layer "channel.msgs_per_pkt"
    (ratio (sum (unit_values acc "ch.msgs")) (sum (unit_values acc "pkts")))
    "ratio";
  layer "channel.ns_per_msg" msg_ns "ns";
  layer "runtime.queue_peak" (float_of_int acc.queue_peak) "count";
  layer "runtime.buffered_peak" (float_of_int acc.buffered_peak) "count";
  List.iter count [ "sb.requests"; "sb.replies"; "sb.batch.items" ];
  layer "nf.process_ns_per_pkt" nf.Replay.process_ns "ns";
  layer "nf.process_share" (ratio (total acc "nf.process_ns") sim_ns) "ratio";
  layer "nf.export_ns_per_chunk" nf.Replay.export_ns "ns";
  layer "nf.import_ns_per_chunk" nf.Replay.import_ns "ns";
  count "nf.chunks";
  count "backend.delta.frames";
  layer "backend.delta.bytes" (unit_median acc "backend.delta.bytes") "bytes";
  List.iter count
    [
      "backend.delta.entries"; "ctrl.msgs_handled"; "ctrl.retries"; "ctrl.dup_pieces";
      "shard.cross_ops";
    ];
  let ops = Probe.intervals probe in
  layer "op.wall_share" (ratio (sum ops) sim_ns) "ratio";
  List.iter count [ "op.chunks"; "op.relayed" ];
  let other = self_table probe acc ~dispatch_ns ~lookup_ns ~msg_ns in
  layer "other.self_share" other "ratio";
  if ops <> [] then
    Printf.printf "operation wall (call to return): p50 %.3f ms over %d operations\n"
      (median ops /. 1e6) (List.length ops);
  let path = Filename.concat out (Printf.sprintf "trace-%s.json" workload) in
  let oc = open_out path in
  output_string oc (Probe.chrome probe);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* Highest nearest-rank percentile with at least ten samples beyond it,
   when that is above the median. *)
let tail sorted =
  let n = Array.length sorted in
  if n < 20 then None
  else Some (100.0 *. float_of_int (n - 10) /. float_of_int n, sorted.(n - 11))

let child ~workload ~variant ~seed ~size ~budget_s ~min_units ~setups ~out =
  let probe = if variant = W.Traced then Probe.create () else Probe.off in
  let gc =
    match variant with
    | W.Base | W.Traced -> Some (Probe.Gc_clock.start ())
    | _ -> None
  in
  let ctx =
    {
      W.seed;
      size;
      budget_ns = budget_s *. 1e9;
      min_units;
      setups;
      variant;
      probe;
      gc;
      calib = Calib.create ();
    }
  in
  let acc = W.new_acc () in
  W.run workload ctx acc;
  let runs = Array.of_list (List.map (fun ns -> ns /. 1e6) acc.run_ns) in
  Array.sort Float.compare runs;
  let run_ms = median (Array.to_list runs) in
  let rels = Array.of_list (List.map (fun r -> r *. Calib.nominal_ms) acc.run_rel) in
  Array.sort Float.compare rels;
  let calib_ms = median (Array.to_list rels) in
  let setup_s = median acc.setup_rel *. Calib.nominal_ms /. 1000.0 in
  let ref_ms = median acc.refs /. 1e6 in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let pct a = match tail a with Some (p, v) -> Printf.sprintf ", p%.1f %.3f" p v | None -> "" in
  Printf.printf
    "%s seed %d: %d units; calibrated run p50 %.3f ms%s; wall run p50 %.3f ms%s; calibrated \
     set-up p50 %.4f s over %d (wall %.4f s); reference task p50 %.3f ms (nominal %.1f); peak \
     heap %.1f MB\n"
    workload seed (Array.length runs) calib_ms (pct rels) run_ms (pct runs) setup_s
    (List.length acc.setup_ns) (median acc.setup_ns /. 1e9) ref_ms Calib.nominal_ms heap_mb;
  if unit_median acc "pkts" > 0.0 && run_ms > 0.0 then
    Printf.printf "  %.0f packets per wall second (median unit)\n"
      (unit_median acc "pkts" /. (run_ms /. 1000.0));
  List.iter (fun (k, v) -> Printf.printf "  virtual %s = %s\n" k v) acc.virt;
  Printf.printf "@@e2e calib_run_ms_p50 %.17g ms\n" calib_ms;
  Printf.printf "@@e2e setup_s %.17g s\n" setup_s;
  Printf.printf "@@e2e peak_heap_mb %.17g MB\n" heap_mb;
  Printf.printf "@@host %.17g %.17g\n" run_ms ref_ms;
  Printf.printf "@@count %d %d\n" acc.attempted acc.failed;
  Option.iter (Printf.printf "@@fp %s\n") acc.fingerprint;
  List.iter (Printf.printf "@@fail %s\n") (List.rev acc.failures);
  let events = sum (unit_values acc "engine.events") in
  (match variant with
  | W.Base ->
    layer "engine.events" (unit_median acc "engine.events") "count";
    layer "engine.events_per_pkt" (ratio events (sum (unit_values acc "pkts"))) "ratio";
    layer "engine.ns_per_event" (ratio (sum acc.run_ns) events) "ns";
    layer "gc.minor_words" (unit_median acc "gc.minor_words") "words";
    layer "gc.major_collections" (unit_median acc "gc.major_collections") "count";
    layer "gc.major_words_per_event" (ratio (sum (unit_values acc "gc.major_words")) events)
      "ratio";
    layer "gc.minor_ms" (unit_median acc "gc.minor_ms") "ms";
    layer "gc.major_ms" (unit_median acc "gc.major_ms") "ms"
  | W.Hub_trace -> layer "obs.trace_events" (unit_median acc "obs.trace_events") "count"
  | W.Traced -> traced_report ~workload ~out probe acc
  | W.Plain | W.Hub_metrics -> ());
  exit (if acc.failures = [] then 0 else 1)

(* --- parent ---------------------------------------------------------------- *)

type result = {
  ok : bool;  (* Exit 0, no failed check. *)
  e2e : (string * (float * string)) list;
  layers : (string * (float * string)) list;
  fp : string option;
  failures : string list;
  attempted : int;
  failed : int;
  wall_ms : float;  (* Wall run p50, uncalibrated. *)
  ref_ms : float;  (* Reference task p50. *)
}

(* The children's environment: the caller's, minus anything that would
   change what the library runs or how the runtime collects, plus the
   pinned settings (serial fabric, no monitor, default scheduler, no
   shard override) and [extra]. *)
let child_env ~out ~extra =
  let pinned =
    [
      ("OPENNF_PAR", "0"); ("OPENNF_MONITOR", "0"); ("OPENNF_SCHEDULER", "");
      ("OCAML_RUNTIME_EVENTS_DIR", out);
    ]
  in
  let pinned =
    List.map (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k extra))) pinned
  in
  let drop v =
    List.exists
      (fun p -> String.starts_with ~prefix:p v)
      [ "OPENNF_"; "OCAMLRUNPARAM="; "OCAML_RUNTIME_EVENTS" ]
  in
  Array.append
    (Array.of_list (List.filter (fun v -> not (drop v)) (Array.to_list (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) pinned))

let deadline = ref infinity

(* Run one child to completion, forwarding its text when [echo], and
   parse its machine lines. A child still running at the parent's
   deadline is killed. *)
let spawn ~echo ~args ~env =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      env Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec pump () =
    let left = !deadline -. Unix.gettimeofday () in
    if left <= 0.0 then begin
      Unix.kill pid Sys.sigkill;
      false
    end
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> pump ()
      | _ -> (
        match Unix.read rd chunk 0 (Bytes.length chunk) with
        | 0 -> true
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          pump ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ())
  in
  let finished = pump () in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let r =
    ref
      {
        ok = finished && status = Unix.WEXITED 0;
        e2e = [];
        layers = [];
        fp = None;
        failures = (if finished then [] else [ "child killed at the deadline" ]);
        attempted = 0;
        failed = 0;
        wall_ms = 0.0;
        ref_ms = 0.0;
      }
  in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | "@@e2e" :: name :: v :: [ u ] ->
        r := { !r with e2e = (name, (float_of_string v, u)) :: !r.e2e }
      | "@@layer" :: name :: v :: [ u ] ->
        r := { !r with layers = (name, (float_of_string v, u)) :: !r.layers }
      | [ "@@count"; a; f ] ->
        r := { !r with attempted = int_of_string a; failed = int_of_string f }
      | [ "@@host"; w; c ] ->
        r := { !r with wall_ms = float_of_string w; ref_ms = float_of_string c }
      | "@@fp" :: rest -> r := { !r with fp = Some (String.concat " " rest) }
      | "@@fail" :: rest ->
        r := { !r with failures = String.concat " " rest :: !r.failures; ok = false }
      | _ -> if echo && line <> "" then print_endline line)
    (String.split_on_char '\n' (Buffer.contents buf));
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> r := { !r with failures = Printf.sprintf "child exited %d" c :: !r.failures }
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    r := { !r with failures = Printf.sprintf "child killed by signal %d" s :: !r.failures });
  !r

type run = {
  workload : string;
  seed : int;
  size : B.size;
  out : string;
  echo : bool;
}

let run_child run ~variant ?(env = []) ~budget_s ~min_units ~setups () =
  spawn ~echo:run.echo
    ~env:(child_env ~out:run.out ~extra:env)
    ~args:
      [
        "--child"; variant; "--workload"; run.workload; "--seed"; string_of_int run.seed;
        "--budget"; Printf.sprintf "%.3f" budget_s; "--min-units"; string_of_int min_units;
        "--setups"; string_of_int setups; "--out"; run.out;
        "--size"; (match run.size with B.Full -> "full" | B.Smoke -> "smoke");
      ]

(* The traffic_1m fingerprint needs three measured windows. *)
let min_units run base = if run.workload = "traffic_1m" then max 3 base else base

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;
  failures : string list;
}

let outcome (rs : result list) ~correct metrics =
  {
    correct;
    attempted = List.fold_left (fun s (r : result) -> s + r.attempted) 0 rs;
    failed = List.fold_left (fun s (r : result) -> s + r.failed) 0 rs;
    metrics;
    failures = List.concat_map (fun (r : result) -> List.rev r.failures) rs;
  }

let e2e_names = [ "calib_run_ms_p50"; "setup_s"; "peak_heap_mb" ]

(* --trace 0: one measured child; its set-up is repeated three times on
   traffic_1m, whose set-up is a single million-flow preload. *)
let measure run ~seconds =
  let r =
    run_child run ~variant:"plain" ~budget_s:seconds ~min_units:(min_units run 5)
      ~setups:3 ()
  in
  outcome [ r ] ~correct:(r.ok && r.fp <> None)
    (List.filter_map (fun n -> Option.map (fun v -> (n, v)) (List.assoc_opt n r.e2e)) e2e_names)

(* --trace 1: the traced child and the comparison children it needs,
   sharing the budget. Every child's virtual results must be identical
   to the untraced base run's. *)
let trace run ~seconds =
  let child ?env variant share =
    if run.echo then Printf.printf "-- %s run%s\n" variant
        (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", %s=%s" k v)
           (Option.value ~default:[] env)));
    run_child run ~variant ?env ~budget_s:(share *. seconds) ~min_units:(min_units run 3)
      ~setups:1 ()
  in
  let base = child "base" 0.2 in
  let traced = child "traced" 0.3 in
  let hubtrace = child "hubtrace" 0.1 in
  let hubmetrics = child "hubmetrics" 0.1 in
  let monitor = child ~env:[ ("OPENNF_MONITOR", "1") ] "plain" 0.1 in
  let par = child ~env:[ ("OPENNF_PAR", "1") ] "plain" 0.2 in
  let all = [ base; traced; hubtrace; hubmetrics; monitor; par ] in
  let same = List.for_all (fun r -> r.fp = base.fp) all in
  let mismatch =
    if same then []
    else
      [
        { base with
          failures =
            List.map
              (fun r -> "virtual results differ: " ^ Option.value ~default:"-" r.fp)
              all;
          attempted = 0;
          failed = 0;
        };
      ]
  in
  let correct = List.for_all (fun r -> r.ok) all && same && base.fp <> None in
  (* Overheads compare calibrated CPU times; parallel mode runs two
     domains, so its speed-up compares wall times. *)
  let run_ms r = fst (List.assoc "calib_run_ms_p50" r.e2e) in
  let over r = ratio (run_ms r) (run_ms base) in
  if correct && run.echo then
    Printf.printf
      "tracing overhead: traced calib_run_ms_p50 %.3f ms vs untraced %.3f ms (x%.3f)\n"
      (run_ms traced) (run_ms base) (over traced);
  outcome (all @ mismatch) ~correct
    (if not correct then []
     else
       List.rev base.layers @ List.rev traced.layers @ List.rev hubtrace.layers
       @ [
           ("host.run_wall_ms_p50", (base.wall_ms, "ms"));
           ("host.ref_ms_p50", (base.ref_ms, "ms"));
           ("par.run_ms_p50", (par.wall_ms, "ms"));
           ("par.speedup", (ratio base.wall_ms par.wall_ms, "ratio"));
           ("obs.trace_overhead", (over hubtrace, "ratio"));
           ("obs.metrics_overhead", (over hubmetrics, "ratio"));
           ("obs.monitor_overhead", (over monitor, "ratio"));
           ("tracing.overhead", (over traced, "ratio"));
         ])

(* The result line: the last line of standard output. *)
(* Each distinct failure once, with how often it occurred. *)
let print_failures failures =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun msg ->
      if not (Hashtbl.mem seen msg) then begin
        Hashtbl.add seen msg ();
        Printf.printf "FAILED CHECK: %s (%d times)\n" msg
          (List.length (List.filter (String.equal msg) failures))
      end)
    failures

let print_result o =
  print_failures o.failures;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct (max 1 o.attempted) o.failed
    (String.concat ", "
       (List.map
          (fun (name, (v, u)) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u)
          o.metrics))

(* Every workload at toy sizes through the traced path, which runs the
   measured path as its base child: all correctness checks, in seconds. *)
let smoke ~out =
  List.fold_left
    (fun ok workload ->
      let o =
        trace { workload; seed = B.default_seed; size = B.Smoke; out; echo = false } ~seconds:0.3
      in
      Printf.printf "smoke %s: %s\n" workload (if o.correct then "ok" else "FAILED");
      print_failures o.failures;
      ok && o.correct)
    true W.names

(* --- command line ----------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
      parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | bad :: _ -> die "unexpected argument %s" bad
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let get_int k d =
    match get k with
    | None -> d
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> die "--%s: not an integer: %s" k v)
  in
  let out = Option.value ~default:"perf/out" (get "out") in
  let workload () =
    match get "workload" with
    | Some w when List.mem w W.names -> w
    | Some w -> die "unknown workload %s (one of %s)" w (String.concat ", " W.names)
    | None -> die "--workload is required"
  in
  match get "child" with
  | Some variant ->
    child ~workload:(workload ()) ~variant:(variant_of_string variant)
      ~seed:(get_int "seed" B.default_seed)
      ~size:(if get "size" = Some "smoke" then B.Smoke else B.Full)
      ~budget_s:(float_of_string (Option.value ~default:"1" (get "budget")))
      ~min_units:(get_int "min-units" 3) ~setups:(get_int "setups" 1) ~out
  | None ->
    deadline := Unix.gettimeofday () +. 170.0;
    (try Unix.mkdir (Filename.dirname out) 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let ok =
      if get "smoke" <> None then smoke ~out
      else
        let run =
          {
            workload = workload ();
            seed = get_int "seed" B.default_seed;
            size = B.Full;
            out;
            echo = true;
          }
        in
        let seconds = get_int "seconds" 10 in
        if seconds < 1 then die "--seconds must be at least 1";
        let o =
          match get "trace" with
          | None | Some "0" -> measure run ~seconds:(float_of_int seconds)
          | Some "1" -> trace run ~seconds:(float_of_int seconds)
          | Some t -> die "--trace must be 0 or 1, not %s" t
        in
        print_result o;
        o.correct
    in
    exit (if ok then 0 else 1)
