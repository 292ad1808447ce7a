(* The four workloads: how one unit of work — an iteration, or a
   one-virtual-second window on traffic_1m — is set up, timed and
   checked, and what each unit records.

   Timing: a unit's set-up (building the fabric, NFs and inputs) and
   its simulation run are timed apart, each on the monotonic clock and
   on the process CPU clock between two repetitions of the reference
   task ([Calib]), with [Gc.compact] before every timed run (traffic_1m
   compacts once per cycle of windows: its resident million-flow heap
   makes a per-window compaction cost more than the window). The
   benchmark's own checks run after the timed run, except
   failover_repl's crash-instant coverage check, which must run at that
   virtual instant and whose time is subtracted from the run. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Runtime = Opennf_sb.Runtime
module Metrics = Opennf_obs.Metrics
module Hub = Opennf_obs.Hub
module Hashing = Opennf_util.Hashing
module B = Beds
open Opennf_net
open Opennf

let names = [ "move_lfop"; "traffic_1m"; "ops_sharded"; "failover_repl" ]

(* How a child process runs its workload. [Plain] is the measured run;
   [Base] adds the GC pause clock and is the reference the traced and
   observability runs are compared against; [Traced] adds the metrics
   hub, the span recorder, the NF wrapper and the replays; [Hub_trace]
   and [Hub_metrics] turn on the library's own tracer or metrics
   registry. *)
type variant = Plain | Base | Traced | Hub_trace | Hub_metrics

type ctx = {
  seed : int;
  size : B.size;
  budget_ns : float;  (* Units start until this much wall has passed... *)
  min_units : int;  (* ...and at least this many are measured. *)
  setups : int;  (* traffic_1m: beds built, to take the median set-up. *)
  variant : variant;
  probe : Probe.t;
  gc : Probe.Gc_clock.g option;
  calib : Calib.t;
}

let hub ctx =
  match ctx.variant with
  | Traced | Hub_metrics -> Some (Hub.create ~metrics:true ())
  | Hub_trace -> Some (Hub.create ~trace:true ~metrics:false ())
  | Plain | Base -> None

(* Hub counters recorded per unit (summed over shard suffixes). *)
let hub_counters =
  [
    "ft.lookups"; "ft.cache_hits"; "ch.msgs"; "ch.bytes"; "sb.requests";
    "sb.replies"; "sb.batch.items"; "backend.delta.frames";
    "backend.delta.bytes"; "backend.delta.entries"; "ctrl.retries";
    "ctrl.dup_pieces"; "shard.cross_ops"; "op.chunks";
  ]

type acc = {
  mutable setup_ns : float list;
  mutable run_ns : float list;
  (* CPU time over the reference task's, per set-up and per run. *)
  mutable setup_rel : float list;
  mutable run_rel : float list;
  mutable refs : float list;  (* Reference task CPU times (ns). *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable fingerprint : string option;
  mutable virt : (string * string) list;  (* Virtual results, for display. *)
  layer : (string, float list) Hashtbl.t;  (* Per-unit values. *)
  totals : (string, float) Hashtbl.t;  (* Sums over every run window. *)
  mutable rts : Runtime.t list;  (* Runtimes sampled by the NF wrapper. *)
  mutable pending_peak : int;
  mutable queue_peak : int;
  mutable buffered_peak : int;
  mutable last : B.common option;  (* The last unit's bed, for replays. *)
}

let new_acc () =
  {
    setup_ns = [];
    run_ns = [];
    setup_rel = [];
    run_rel = [];
    refs = [];
    attempted = 0;
    failed = 0;
    failures = [];
    fingerprint = None;
    virt = [];
    layer = Hashtbl.create 32;
    totals = Hashtbl.create 32;
    rts = [];
    pending_peak = 0;
    queue_peak = 0;
    buffered_peak = 0;
    last = None;
  }

let fail acc fmt =
  Printf.ksprintf (fun msg -> acc.failures <- msg :: acc.failures) fmt

let check acc cond fmt =
  Printf.ksprintf (fun msg -> if not cond then acc.failures <- msg :: acc.failures) fmt

let per_unit acc name v =
  Hashtbl.replace acc.layer name
    (v :: Option.value ~default:[] (Hashtbl.find_opt acc.layer name))

let add_total acc name v =
  Hashtbl.replace acc.totals name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc.totals name))

(* Virtual results of a unit must be identical in every unit. *)
let fingerprint acc fp =
  match acc.fingerprint with
  | None -> acc.fingerprint <- Some fp
  | Some f -> check acc (f = fp) "virtual results differ between units: [%s] vs [%s]" f fp

let counter_value hub base =
  List.fold_left
    (fun sum (name, v) ->
      if name = base || String.starts_with ~prefix:(base ^ ".shard") name then sum + v
      else sum)
    0
    (Metrics.counters (Hub.metrics hub))

(* The hub counters, and the events the hub's tracer holds. *)
let snapshot hub =
  ("obs.trace_events", Opennf_obs.Trace.length (Hub.trace hub))
  :: List.map (fun n -> (n, counter_value hub n)) hub_counters

(* The NF wrapper, sampling the runtimes' queues whenever a packet is
   served. *)
let wrap ctx acc =
  Probe.wrap ctx.probe ~sample:(fun () ->
      List.iter
        (fun rt ->
          acc.queue_peak <- max acc.queue_peak (Runtime.queue_length rt);
          acc.buffered_peak <- max acc.buffered_peak (Runtime.buffered_count rt))
        acc.rts)

let compact ctx = Probe.span ctx.probe ~layer:"compact" ~name:"Gc.compact" Gc.compact

(* One repetition of the reference task; returns its CPU time (ns). *)
let reference ctx acc =
  Probe.span ctx.probe ~layer:"calib" ~name:"reference" (fun () ->
      let c0 = Probe.cpu_ns () in
      ignore (Sys.opaque_identity (Calib.rep ctx.calib));
      let ns = Probe.cpu_ns () -. c0 in
      acc.refs <- ns :: acc.refs;
      ns)

(* Run [f] between two repetitions of the reference task: returns its
   result, its CPU time (ns) and the mean of the two repetitions'. *)
let between_references ctx acc f =
  let r0 = reference ctx acc in
  let c0 = Probe.cpu_ns () in
  let x = f () in
  let cpu = Probe.cpu_ns () -. c0 in
  let r1 = reference ctx acc in
  (x, cpu, (r0 +. r1) /. 2.0)

let setup ctx acc name f =
  let (b, ns), cpu, ref_ns =
    between_references ctx acc (fun () -> Probe.span_timed ctx.probe ~layer:"setup" ~name f)
  in
  acc.setup_ns <- ns :: acc.setup_ns;
  acc.setup_rel <- (cpu /. ref_ns) :: acc.setup_rel;
  b

(* What one timed run window costs. *)
type window = {
  wall_ns : float;
  cpu_ns : float;
  ref_ns : float;  (* The reference task's CPU time around the window. *)
  events : int;
  minor_words : float;
  major_words : float;
  major_collections : int;
  gc_minor_ns : float;
  gc_major_ns : float;
  chunks : int;  (* Chunks the NFs exported or imported (traced run). *)
  counts : (string * int) list;  (* Hub counters the window added. *)
}

(* Time [f] as a run window of [c]'s engine. *)
let sim ctx acc (c : B.common) ~name f =
  let e = c.fab.Fabric.engine in
  acc.pending_peak <- max acc.pending_peak (Engine.pending e);
  Option.iter (fun g -> ignore (Probe.Gc_clock.take g)) ctx.gc;
  let c0 = snapshot (Engine.obs e) in
  let s0 = Gc.quick_stat () in
  let ev0 = Engine.processed e in
  (* The window's NF sums are read as its span closes, before the
     reference task's span closes in turn. *)
  let (r, ns, nf), cpu_ns, ref_ns =
    between_references ctx acc (fun () ->
        let r, ns = Probe.span_timed ctx.probe ~layer:"sim" ~name f in
        (r, ns, if ctx.probe.Probe.on then ctx.probe.Probe.closed_nf else Probe.nf_acc ()))
  in
  let s1 = Gc.quick_stat () in
  let events = Engine.processed e - ev0 in
  acc.pending_peak <- max acc.pending_peak (Engine.pending e);
  let gc_minor_ns, gc_major_ns =
    match ctx.gc with Some g -> Probe.Gc_clock.take g | None -> (0.0, 0.0)
  in
  let counts =
    List.map2 (fun (n, after) (_, before) -> (n, after - before)) (snapshot (Engine.obs e)) c0
  in
  List.iter (fun (n, v) -> add_total acc n (float_of_int v)) counts;
  let w =
    {
      wall_ns = ns;
      cpu_ns;
      ref_ns;
      events;
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      major_words = s1.Gc.major_words -. s0.Gc.major_words;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
      gc_minor_ns;
      gc_major_ns;
      chunks = nf.export_n + nf.import_n;
      counts;
    }
  in
  add_total acc "sim_ns" ns;
  add_total acc "nf.process_ns" nf.process_ns;
  add_total acc "engine.events" (float_of_int events);
  (r, w)

(* Record a measured unit: its run times, packets and per-unit counts.
   [excluded] is the (wall, CPU) time of a check that ran inside the
   window. *)
let record acc c ?(excluded = (0.0, 0.0)) ~pkts (w : window) ~extra =
  acc.run_ns <- (w.wall_ns -. fst excluded) :: acc.run_ns;
  acc.run_rel <- ((w.cpu_ns -. snd excluded) /. w.ref_ns) :: acc.run_rel;
  acc.last <- Some c;
  let f name v = per_unit acc name v in
  f "pkts" (float_of_int pkts);
  f "engine.events" (float_of_int w.events);
  f "gc.minor_words" w.minor_words;
  f "gc.major_words" w.major_words;
  f "gc.major_collections" (float_of_int w.major_collections);
  f "gc.minor_ms" (w.gc_minor_ns /. 1e6);
  f "gc.major_ms" (w.gc_major_ns /. 1e6);
  f "nf.chunks" (float_of_int w.chunks);
  List.iter (fun (n, v) -> f n (float_of_int v)) w.counts;
  List.iter (fun (n, v) -> f n v) extra

(* Added latency (s) of the packets a move carried in events or
   buffered at the destination, sorted. *)
let added_latencies audit =
  List.sort_uniq Int.compare (Audit.evented_ids audit @ Audit.buffered_ids audit)
  |> List.filter_map (fun pkt -> Audit.added_latency audit ~pkt)
  |> List.sort Float.compare
  |> Array.of_list

(* Nearest-rank percentile of sorted samples; 0 when empty. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let ms s = Printf.sprintf "%.6f" (1000.0 *. s)

(* Keep starting cycles until the budget is spent and at least
   [min_units] units were measured; [f i] runs cycle [i] and returns the
   units it measured. The previous cycle's bed is released first, so at
   most one is alive. *)
let repeat ctx acc f =
  let t0 = Probe.now_ns () in
  let rec go i units =
    if units < ctx.min_units || Probe.now_ns () -. t0 < ctx.budget_ns then begin
      acc.last <- None;
      acc.rts <- [];
      go (i + 1) (units + f i)
    end
  in
  go 0 0

(* Virtual results every seed reproduces at full size. They were
   recorded from the library when the benchmark was introduced; a
   change that moves them changes the modeled system and fails the run
   (update them only in a change meant to alter the model). move_lfop
   is the fig10 LF+OP PL+ER row. *)
let expected_move_ms = "299.8"
let expected_move_relayed = 580
let expected_ops_makespan = "2363.844"
let expected_ops_messages = 48024
let expected_fo_recovery = "64.283"
let expected_fo_delta_bytes = 2232000
let expected_fo_live = 11000

(* Bump [failed] when a unit's checks added failures. *)
let count_failure acc ~before n =
  if List.length acc.failures > before then acc.failed <- acc.failed + n

(* --- move_lfop ----------------------------------------------------------- *)

(* The audit-ledger checks (duplicates, guarantee verdict, added
   latency) fold the whole ledger, so they run on the first unit only;
   every later unit must reproduce its virtual results exactly. *)
let move ctx acc =
  repeat ctx acc (fun i ->
      let b =
        setup ctx acc "move_bed" (fun () ->
            B.move_bed ~seed:ctx.seed ?obs:(hub ctx) ~wrap:(wrap ctx acc) ctx.size)
      in
      let fab = b.B.m.fab in
      acc.rts <- b.B.m.runtimes;
      compact ctx;
      let result = ref None in
      Engine.schedule_at fab.engine b.B.m_move_at (fun () ->
          Proc.spawn fab.engine (fun () ->
              let r =
                Probe.interval ctx.probe ~name:"Move.run" (fun () ->
                    Move.run fab.ctrl b.B.m_spec)
              in
              acc.pending_peak <- max acc.pending_peak (Engine.pending fab.engine);
              result := Some r));
      let (), w = sim ctx acc b.B.m ~name:"Fabric.run" (fun () -> Fabric.run fab) in
      Probe.span ctx.probe ~layer:"check" ~name:"checks" (fun () ->
          acc.attempted <- acc.attempted + 1;
          let before = List.length acc.failures in
          let sum f = List.fold_left (fun s rt -> s + f rt) 0 b.B.m.runtimes in
          let lost = sum Runtime.tombstone_dropped + b.B.m.injected - sum Runtime.processed_count in
          check acc (lost = 0) "move_lfop: %d packets lost" lost;
          (match !result with
          | Some (Ok r) ->
            let dur = ms (Move.duration r) in
            if ctx.size = B.Full then
              check acc
                (Printf.sprintf "%.1f" (1000.0 *. Move.duration r) = expected_move_ms
                && r.Move.relayed = expected_move_relayed)
                "move_lfop: move %s ms / %d relayed, expected %s ms / %d (fig10 LF+OP PL+ER)"
                dur r.Move.relayed expected_move_ms expected_move_relayed;
            if i = 0 then begin
              let dups = List.length (Audit.duplicated fab.audit) in
              let findings = List.length (Fabric.verdict fab) in
              let lat = added_latencies fab.audit in
              check acc (dups = 0) "move_lfop: %d packets processed twice" dups;
              check acc (findings = 0) "move_lfop: %d guarantee findings" findings;
              acc.virt <-
                [
                  ("op_virtual_ms", dur);
                  ("added_latency_p50_ms", ms (percentile lat 0.5));
                  ("added_latency_p95_ms", ms (percentile lat 0.95));
                  ("added_latency_samples", string_of_int (Array.length lat));
                  ("pkts_lost", string_of_int lost);
                  ("guarantee_findings", string_of_int findings);
                  ("state_bytes", string_of_int r.Move.state_bytes);
                ]
            end;
            fingerprint acc
              (Printf.sprintf "move=%.17g relayed=%d bytes=%d chunks=%d events=%d" (Move.duration r)
                 r.Move.relayed r.Move.state_bytes r.Move.per_chunks w.events);
            record acc b.B.m ~pkts:b.B.m.injected w
              ~extra:
                [
                  ("op.relayed", float_of_int r.Move.relayed);
                  ("ctrl.msgs_handled", float_of_int (Shard.messages_handled fab.group));
                ]
          | Some (Error e) ->
            fail acc "move_lfop: move failed: %s" (Format.asprintf "%a" Op_error.pp e)
          | None -> fail acc "move_lfop: move never returned");
          count_failure acc ~before 1);
      1)

(* --- traffic_1m ---------------------------------------------------------- *)

(* The million-flow preload is the set-up, built [setups] times (all but
   the last dropped). The audit ledger grows with every packet, so the
   windows run in cycles: each cycle wraps the resident PRADS in a fresh
   fabric, discards its first window (cold caches) and measures
   [cycle_windows] more, then drains and checks. Every cycle
   injects the same packets, so each must reproduce the first one's
   per-window virtual results. *)
let cycle_windows = 5

let traffic ctx acc =
  let nf = ref None in
  for _ = 1 to ctx.setups do
    if !nf <> None then begin
      nf := None;
      compact ctx
    end;
    nf := Some (setup ctx acc "preload" (fun () -> B.traffic_nf ~seed:ctx.seed ctx.size))
  done;
  let nf = Option.get !nf in
  repeat ctx acc (fun _ ->
      let b =
        Probe.span ctx.probe ~layer:"setup" ~name:"traffic_bed" (fun () ->
            B.traffic_bed ~seed:ctx.seed ?obs:(hub ctx) ~wrap:(wrap ctx acc) nf)
      in
      acc.rts <- b.B.t.runtimes;
      compact ctx;
      let e = b.B.t.fab.Fabric.engine in
      let fp = Buffer.create 64 in
      for w = 0 to cycle_windows do
        let inj0 = b.B.t_injected in
        let _, st =
          sim ctx acc b.B.t ~name:"Engine.run_until" (fun () ->
              Engine.run_until e ~until:(b.B.t_start +. float_of_int (w + 1)))
        in
        let pkts = b.B.t_injected - inj0 in
        Printf.bprintf fp "%d/%d " pkts st.events;
        if w > 0 then record acc b.B.t ~pkts st ~extra:[]
      done;
      Probe.span ctx.probe ~layer:"check" ~name:"drain+checks" (fun () ->
          b.B.t_stop <- true;
          Fabric.run b.B.t.fab;
          let rt = List.hd b.B.t.runtimes in
          let conns = B.Prads.connection_count nf.B.prads in
          let active = Array.length nf.B.active in
          let lost = b.B.t_injected - Runtime.processed_count rt + Runtime.dropped_count rt in
          acc.attempted <- acc.attempted + b.B.t_injected;
          acc.failed <- acc.failed + max 0 lost;
          check acc (lost = 0) "traffic_1m: %d of %d injected packets not processed" lost
            b.B.t_injected;
          check acc
            (conns = nf.B.preload + active)
            "traffic_1m: %d connections, expected %d preloaded + %d active" conns nf.B.preload
            active;
          acc.virt <-
            [
              ("pkts_per_cycle", string_of_int b.B.t_injected);
              ("pkts_lost", string_of_int lost);
              ("connections", string_of_int conns);
            ];
          fingerprint acc (Buffer.contents fp));
      cycle_windows)

(* --- ops_sharded --------------------------------------------------------- *)

(* One iteration of the sharded move batch; returns the bed, the run
   window and the outcome digest, makespan and report totals. *)
let shard_iteration ctx acc ~hub ~shards =
  let b =
    setup ctx acc "shard_bed" (fun () ->
        B.shard_bed ~seed:ctx.seed ?obs:hub ~wrap:(wrap ctx acc) ~shards ctx.size)
  in
  let fab = b.B.s.fab in
  acc.rts <- b.B.s.runtimes;
  compact ctx;
  let reports = ref [] and finished = ref nan in
  Engine.schedule_at fab.engine B.shard_submit_at (fun () ->
      Proc.spawn fab.engine (fun () ->
          reports :=
            Probe.interval ctx.probe ~name:"Move.submit_sharded x8" (fun () ->
                List.map
                  (fun p -> Move.submit_sharded fab.group p.B.spec)
                  b.B.s_pairs
                |> List.map Proc.Ivar.read);
          finished := Engine.now fab.engine));
  let (), w = sim ctx acc b.B.s ~name:"Fabric.run" (fun () -> Fabric.run fab) in
  let digest = ref (Hashing.fnv1a64 "shards") in
  let fold i = digest := Hashing.combine !digest (Int64.of_int i) in
  let errors = ref 0 and bytes = ref 0 and relayed = ref 0 in
  List.iter
    (function
      | Ok r ->
        fold r.Move.per_chunks;
        fold r.Move.state_bytes;
        bytes := !bytes + r.Move.state_bytes;
        relayed := !relayed + r.Move.relayed
      | Error e ->
        incr errors;
        fail acc "ops_sharded: move failed: %s" (Format.asprintf "%a" Op_error.pp e))
    !reports;
  List.iter
    (fun p ->
      fold (B.Dummy.flow_count p.B.src);
      fold (B.Dummy.imported_count p.B.dst))
    b.B.s_pairs;
  (b, w, !digest, !finished -. B.shard_submit_at, !errors, !bytes, !relayed)

let ops ctx acc =
  (* The unsharded reference the sharded batch must reproduce, run
     untimed and unrecorded. *)
  let reference =
    let ctx = { ctx with probe = Probe.off; gc = None; variant = Plain } in
    let scratch = new_acc () in
    let _, _, d, _, _, _, _ = shard_iteration ctx scratch ~hub:None ~shards:1 in
    acc.failures <- scratch.failures @ acc.failures;
    d
  in
  repeat ctx acc (fun i ->
      let b, w, digest, makespan, errors, bytes, relayed =
        shard_iteration ctx acc ~hub:(hub ctx) ~shards:2
      in
      let fab = b.B.s.fab in
      Probe.span ctx.probe ~layer:"check" ~name:"checks" (fun () ->
          let before = List.length acc.failures in
          let messages = Shard.messages_handled fab.group in
          acc.attempted <- acc.attempted + List.length b.B.s_pairs;
          check acc (digest = reference)
            "ops_sharded: 2-shard digest %Lx differs from the 1-shard reference %Lx" digest
            reference;
          if ctx.size = B.Full then
            check acc
              (Printf.sprintf "%.3f" (1000.0 *. makespan) = expected_ops_makespan
              && messages = expected_ops_messages)
              "ops_sharded: makespan %s ms / %d messages, expected %s ms / %d" (ms makespan)
              messages expected_ops_makespan expected_ops_messages;
          if i = 0 then begin
            let findings = List.length (Fabric.verdict fab) in
            check acc (findings = 0) "ops_sharded: %d guarantee findings" findings;
            acc.virt <-
              [
                ("op_virtual_ms", ms makespan);
                ("state_bytes", string_of_int bytes);
                ("ctrl_messages", string_of_int messages);
                ("cross_shard_ops", string_of_int (Shard.cross_shard_ops fab.group));
                ("guarantee_findings", string_of_int findings);
              ]
          end;
          count_failure acc ~before (max 1 errors);
          fingerprint acc
            (Printf.sprintf "makespan=%.17g digest=%Lx msgs=%d bytes=%d" makespan digest
               messages bytes);
          record acc b.B.s ~pkts:0 w
            ~extra:
              [
                ("op.relayed", float_of_int relayed);
                ("ctrl.msgs_handled", float_of_int messages);
              ]);
      1)

(* --- failover_repl ------------------------------------------------------- *)

let failover ctx acc =
  repeat ctx acc (fun _ ->
      let b =
        setup ctx acc "fo_bed" (fun () ->
            B.fo_bed ~seed:ctx.seed ?obs:(hub ctx) ~wrap:(wrap ctx acc) ctx.size)
      in
      let fab = b.B.f.fab in
      acc.rts <- b.B.f.runtimes;
      compact ctx;
      let cov = ref (0, 0) and cov_time = ref (0.0, 0.0) in
      Engine.schedule_at fab.engine B.fo_snap_at (fun () ->
          let c0 = Probe.cpu_ns () in
          let c, ns =
            Probe.span_timed ctx.probe ~layer:"check" ~name:"coverage" (fun () ->
                B.coverage b)
          in
          cov := c;
          cov_time := (ns, Probe.cpu_ns () -. c0));
      Engine.schedule_at fab.engine B.fo_reroute_at (fun () ->
          Proc.spawn fab.engine (fun () ->
              match !(b.B.f_app) with
              | Some app ->
                Probe.interval ctx.probe ~name:"Failover.fail_over" (fun () ->
                    B.Failover.fail_over app ~filter:Filter.any)
              | None -> ()));
      let (), w = sim ctx acc b.B.f ~name:"Fabric.run" (fun () -> Fabric.run fab) in
      Probe.span ctx.probe ~layer:"check" ~name:"checks" (fun () ->
          acc.attempted <- acc.attempted + 1;
          let before = List.length acc.failures in
          let live, exact = !cov in
          let invalid = B.Nat.invalid_count b.B.f_nat2 in
          let bytes = B.Backend.delta_bytes b.B.f_primary in
          let recovery =
            match !(b.B.f_app) with
            | Some app when B.Failover.replicated app -> (
              match B.Failover.recovered_at app with
              | Some t -> Some (t -. B.fo_fail_at)
              | None -> None)
            | _ -> None
          in
          check acc (recovery <> None) "failover_repl: the standby never took over";
          check acc (live > 0 && exact = live)
            "failover_repl: standby byte-exact on %d of %d live entries" exact live;
          check acc (invalid = 0) "failover_repl: %d post-failover invalid drops" invalid;
          let recovery = Option.value ~default:nan recovery in
          if ctx.size = B.Full then
            check acc
              (Printf.sprintf "%.3f" (1000.0 *. recovery) = expected_fo_recovery
              && bytes = expected_fo_delta_bytes && live = expected_fo_live)
              "failover_repl: recovery %s ms / %d delta bytes / %d live, expected %s / \
               %d / %d"
              (ms recovery) bytes live expected_fo_recovery expected_fo_delta_bytes
              expected_fo_live;
          count_failure acc ~before 1;
          acc.virt <-
            [
              ("op_virtual_ms", ms recovery);
              ("standby_exact_frac",
                Printf.sprintf "%.6f" (float_of_int exact /. float_of_int (max 1 live)));
              ("state_bytes", string_of_int bytes);
              ("pkts_lost", string_of_int invalid);
            ];
          fingerprint acc
            (Printf.sprintf "recovery=%.17g bytes=%d live=%d exact=%d events=%d" recovery
               bytes live exact w.events);
          record acc b.B.f ~excluded:!cov_time ~pkts:b.B.f.injected w
            ~extra:
              [
                ("op.relayed", 0.0);
                ("ctrl.msgs_handled", float_of_int (Shard.messages_handled fab.group));
              ]);
      1)

let run name ctx acc =
  match name with
  | "move_lfop" -> move ctx acc
  | "traffic_1m" -> traffic ctx acc
  | "ops_sharded" -> ops ctx acc
  | "failover_repl" -> failover ctx acc
  | other -> invalid_arg ("unknown workload " ^ other)
