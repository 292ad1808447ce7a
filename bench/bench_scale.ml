(* Million-flow wall-clock scaling (ISSUE 4, rebased on the flat-memory
   arenas and the timing-wheel scheduler of ISSUE 6).

   Four questions, each in real seconds (not virtual time):

   - ordered enumeration: on the arena store PRADS keeps its
     connections in, which sorts on query, how does PRADS's
     [list_perflow Filter.any] (the getPerflow enumeration behind a
     move of every flow) over a preload inserted in shuffled order
     compare with the fold-and-sort oracle
     ([Oracle.Store.perflow_arena_matching]) on the same rows, at
     10k / 100k / 1M flows?
   - allocation: how many minor-heap words does one getPerflow
     (enumerate + scratch-buffer chunk encode) burn?
   - throughput: how many simulation events per wall second does the
     traffic window itself sustain while the NF holds that much
     resident state — preload (building the flows) is timed separately,
     and the GC's minor/major collection counts and major-heap words
     over the window say *why* a heap hurts or doesn't.
   - schedulers: the timing wheel must reproduce, on a fixed scenario,
     the virtual-time results the reference binary heap recorded.

   Sizes come from OPENNF_SCALE_SIZES (e.g. "10k 100k 1m"), defaulting
   to the full sweep; the @bench-check smoke run sets small sizes.
   Emits BENCH_scale.json (+ METRICS_scale.json). Wall times use
   [Unix.gettimeofday]. *)

module H = Harness
module Engine = Opennf_sim.Engine
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf

let default_sizes = [ 10_000; 100_000; 1_000_000 ]

let parse_sizes s =
  String.split_on_char ' ' (String.map (function ',' -> ' ' | c -> c) s)
  |> List.filter (fun tok -> tok <> "")
  |> List.map (fun tok ->
         let mult, digits =
           match tok.[String.length tok - 1] with
           | 'k' | 'K' -> (1_000, String.sub tok 0 (String.length tok - 1))
           | 'm' | 'M' -> (1_000_000, String.sub tok 0 (String.length tok - 1))
           | _ -> (1, tok)
         in
         mult * int_of_string digits)

let sizes () =
  match Sys.getenv_opt "OPENNF_SCALE_SIZES" with
  | Some s -> parse_sizes s
  | None -> default_sizes

let key_of_int i =
  Flow.make
    ~src:(Ipaddr.of_int (0x0A000000 lor (i lsr 6)))
    ~dst:(Ipaddr.of_int 0xC0A80101)
    ~sport:(1024 + (i land 63))
    ~dport:80 ()

let packet_of_int i =
  Packet.create ~id:i ~key:(key_of_int i) ~sent_at:0.0 ()

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let wall_per f ~iters =
  let t, () = wall (fun () -> for _ = 1 to iters do f () done) in
  t /. float_of_int iters

let best_of ?(reps = 3) f ~iters =
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (wall_per f ~iters)
  done;
  !best

let minor_words_per f ~iters =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

(* --- getPerflow allocation ----------------------------------------------- *)

type get_row = {
  g_words : float;  (* minor words per NF-level getPerflow (list+export) *)
  g_export_words : float;  (* minor words per single chunk export *)
}

let bench_get n =
  let prads = Opennf_nfs.Prads.create () in
  let impl = Opennf_nfs.Prads.impl prads in
  for i = 0 to n - 1 do
    impl.Opennf_sb.Nf_api.process_packet (packet_of_int i)
  done;
  (* Allocation cost of one single-flow getPerflow: enumerate the
     matching flowid, then serialize its connection through the
     module-level scratch writer. *)
  let f = Filter.of_key (key_of_int (n / 2)) in
  let g_words =
    minor_words_per ~iters:1000 (fun () ->
        List.iter
          (fun flowid -> ignore (impl.Opennf_sb.Nf_api.export_perflow flowid))
          (impl.Opennf_sb.Nf_api.list_perflow f))
  in
  let g_export_words =
    minor_words_per ~iters:1000 (fun () ->
        ignore (impl.Opennf_sb.Nf_api.export_perflow f))
  in
  { g_words; g_export_words }

(* The arena enumeration, as a same-process ratio: PRADS's full
   [list_perflow] against the fold-and-sort oracle over an arena store
   holding the same keys, inserted in the same shuffled order (so rows
   sit out of key order and the enumeration really sorts). The two
   flowid lists must be identical. *)
let bench_arena_enum n =
  let module Pfa = Opennf_state.Store.Perflow_arena in
  let order = Array.init n Fun.id in
  let st = Random.State.make [| n |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let prads = Opennf_nfs.Prads.create () in
  let impl = Opennf_nfs.Prads.impl prads in
  let store = Pfa.create ~payload:0 () in
  Array.iter
    (fun i ->
      impl.Opennf_sb.Nf_api.process_packet (packet_of_int i);
      ignore (Pfa.insert store (key_of_int i)))
    order;
  let list () = impl.Opennf_sb.Nf_api.list_perflow Filter.any in
  let oracle () =
    List.map
      (fun (k, _) -> Filter.of_key k)
      (Oracle.Store.perflow_arena_matching store Filter.any)
  in
  if not (List.equal Filter.equal (list ()) (oracle ())) then
    failwith "scale: arena enumeration diverged from the fold-and-sort oracle";
  let iters = max 1 (100_000 / n) in
  let t_list = best_of ~iters (fun () -> ignore (list ())) in
  let t_oracle = best_of ~iters (fun () -> ignore (oracle ())) in
  t_oracle /. t_list

(* --- event throughput under load ----------------------------------------- *)

(* Virtual-time results only: everything here must be bit-identical
   across instrumentation, so the scheduler-equivalence check compares
   whole values. *)
type scenario_result = {
  sc_events : int;
  sc_virtual_end : float;
  sc_conns : int;
  sc_assets : int;
  sc_stats : int * int * int;
}

(* Wall-clock and GC costs of one scenario, phase-split: [c_preload]
   covers building the fabric and the resident flows, [c_traffic] the
   simulation run only — events/s over a big heap means events over
   the traffic window, not amortized preload. GC deltas are measured
   across the traffic window. *)
type scenario_cost = {
  c_preload : float;
  c_traffic : float;
  c_minor_cols : int;
  c_major_cols : int;
  c_major_words : float;
}

(* A traffic window against a PRADS instance preloaded with [preload]
   connections: [flows] fresh flows at [rate] pps for [duration]
   virtual seconds. Fully seeded. *)
let scenario_full ~seed ~preload ~flows ~rate ~duration () =
  let t0 = Unix.gettimeofday () in
  let fab = Fabric.create ~seed () in
  let prads1 = Opennf_nfs.Prads.create () in
  let nf1, _rt1 =
    Fabric.add_nf fab ~name:"prads1" ~impl:(Opennf_nfs.Prads.impl prads1)
      ~costs:Costs.prads
  in
  let impl1 = Opennf_nfs.Prads.impl prads1 in
  for i = 0 to preload - 1 do
    impl1.Opennf_sb.Nf_api.process_packet (packet_of_int i)
  done;
  let gen = Opennf_trace.Gen.create ~seed:(seed * 7) () in
  let schedule, _keys =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate ~start:0.01 ~duration ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Opennf_sim.Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl Filter.any nf1);
  let t1 = Unix.gettimeofday () in
  let s0 = Gc.quick_stat () in
  Fabric.run fab;
  let s1 = Gc.quick_stat () in
  let t2 = Unix.gettimeofday () in
  ( {
      sc_events = Engine.processed fab.engine;
      sc_virtual_end = Engine.now fab.engine;
      sc_conns = Opennf_nfs.Prads.connection_count prads1;
      sc_assets = Opennf_nfs.Prads.asset_count prads1;
      sc_stats = Opennf_nfs.Prads.stats prads1;
    },
    {
      c_preload = t1 -. t0;
      c_traffic = t2 -. t1;
      c_minor_cols = s1.Gc.minor_collections - s0.Gc.minor_collections;
      c_major_cols = s1.Gc.major_collections - s0.Gc.major_collections;
      c_major_words = s1.Gc.major_words -. s0.Gc.major_words;
    } )

let scenario ~seed ~preload ~flows ~rate ~duration () =
  fst (scenario_full ~seed ~preload ~flows ~rate ~duration ())

let bench_throughput n =
  scenario_full ~seed:(31 + n) ~preload:n ~flows:500 ~rate:20_000.0
    ~duration:1.0 ()

(* --- scheduler equivalence ----------------------------------------------- *)

(* The seed-77 scenario's virtual-time results under the reference
   binary-heap event queue, recorded when the heap still ran whole
   simulations (the heap itself now lives in the test oracles, see
   [Oracle.Heap_engine]). The clock is exact: [%h] of the heap's final
   virtual time. Re-recorded by running the scenario on an engine whose
   queue is that oracle heap when the NF packet CPU stopped being a
   process: one spawn event fewer per runtime, 9,888 -> 9,887; every
   other field unchanged. *)
let heap_recorded =
  {
    sc_events = 9_887;
    sc_virtual_end = 0x1.57141205bbea8p-1;
    sc_conns = 2_200;
    sc_assets = 234;
    sc_stats = (5_288, 310_022, 2_200);
  }

(* The scenario under the timing wheel: every virtual-time field (events
   dispatched, final clock, NF state digest) must match the recorded
   heap results exactly, or the wheel broke the (time, seq) dispatch
   order. *)
let bench_schedulers () =
  ( heap_recorded,
    scenario ~seed:77 ~preload:2_000 ~flows:200 ~rate:5_000.0 ~duration:0.5 () )

(* --- sharded control plane ------------------------------------------------ *)

type shard_row = {
  sh_run : H.shard_run;
  sh_wall : H.timed; (* Wall min-of-k for the whole sim. *)
}

(* Scaling of the control plane itself: the same controller-bound
   disjoint-move workload at growing shard counts, every shard in one
   engine. The speedup is in virtual time — parallelism of the modeled
   control plane, not of the host. Wall numbers are min-of-k with the
   spread recorded. *)
let bench_shards () =
  List.map
    (fun shards ->
      let sh_wall, sh_run =
        H.time_min_of (fun () ->
            H.run_shard_workload ~ops:8 ~flows:300 ~shards ())
      in
      { sh_run; sh_wall })
    (H.shard_counts ())

(* --- driver -------------------------------------------------------------- *)

let json_row n g e r c =
  Printf.sprintf
    {|    {"flows": %d, "arena_list_any_speedup_vs_oracle": %.2f, "get_perflow_minor_words": %.1f, "chunk_export_minor_words": %.1f, "preload_wall_ms": %.1f, "traffic_wall_ms": %.1f, "scenario_events": %d, "events_per_sec": %.0f, "gc_minor_collections": %d, "gc_major_collections": %d, "gc_major_words_per_event": %.1f}|}
    n e
    g.g_words g.g_export_words (1000.0 *. c.c_preload) (1000.0 *. c.c_traffic)
    r.sc_events
    (float_of_int r.sc_events /. c.c_traffic)
    c.c_minor_cols c.c_major_cols
    (c.c_major_words /. float_of_int r.sc_events)

let run () =
  H.section "Wall-clock scaling (ordered enumeration, allocation)";
  let sizes = sizes () in
  let metrics_hub = Opennf_obs.Hub.create ~metrics:true () in
  let metrics = Opennf_obs.Hub.metrics metrics_hub in
  let rows =
    List.map
      (fun n ->
        let g = bench_get n in
        Gc.compact ();
        let e = bench_arena_enum n in
        Gc.compact ();
        let r, c = bench_throughput n in
        Gc.compact ();
        (n, g, e, r, c))
      sizes
  in
  H.table
    ~header:
      [
        "flows"; "arena enum x"; "getPf words"; "events/s";
        "minor GCs"; "major GCs"; "major w/event";
      ]
    (List.map
       (fun (n, g, e, r, c) ->
         [
           string_of_int n;
           Printf.sprintf "%.2fx" e;
           Printf.sprintf "%.0f" g.g_words;
           Printf.sprintf "%.0f" (float_of_int r.sc_events /. c.c_traffic);
           string_of_int c.c_minor_cols;
           string_of_int c.c_major_cols;
           Printf.sprintf "%.1f" (c.c_major_words /. float_of_int r.sc_events);
         ])
       rows);
  List.iter
    (fun (n, g, _, r, c) ->
      let set name v =
        Opennf_obs.Metrics.set
          (Opennf_obs.Metrics.gauge metrics (Printf.sprintf "scale.%d.%s" n name))
          v
      in
      set "events_per_sec" (float_of_int r.sc_events /. c.c_traffic);
      set "traffic_wall_ms" (1000.0 *. c.c_traffic);
      set "get_perflow_minor_words" g.g_words;
      set "gc_minor_collections" (float_of_int c.c_minor_cols);
      set "gc_major_collections" (float_of_int c.c_major_cols);
      set "gc_major_words_per_event"
        (c.c_major_words /. float_of_int r.sc_events))
    rows;
  let heap, wheel = bench_schedulers () in
  let sched_ok = heap = wheel in
  H.note "schedulers: heap %d events / wheel %d events, virtual results %s"
    heap.sc_events wheel.sc_events
    (if sched_ok then "identical" else "DIVERGED");
  H.section "Sharded control plane: virtual makespan vs shard count";
  let shard_rows = bench_shards () in
  let serial_span =
    match shard_rows with
    | first :: _ when first.sh_run.H.s_shards = 1 -> first.sh_run.H.s_makespan
    | _ -> 0.0
  in
  let shard_speedup row =
    if serial_span > 0.0 then serial_span /. row.sh_run.H.s_makespan else 1.0
  in
  let digests_ok =
    match shard_rows with
    | first :: rest ->
      List.for_all
        (fun r -> r.sh_run.H.s_digest = first.sh_run.H.s_digest)
        rest
    | [] -> true
  in
  H.table
    ~header:[ "shards"; "virtual makespan (ms)"; "speedup"; "wall (ms)" ]
    (List.map
       (fun row ->
         [
           string_of_int row.sh_run.H.s_shards;
           H.ms row.sh_run.H.s_makespan;
           Printf.sprintf "%.2fx" (shard_speedup row);
           H.ms row.sh_wall.H.t_min;
         ])
       shard_rows);
  H.note "shard digests across counts: %s"
    (if digests_ok then "identical" else "DIVERGED");
  let oc = open_out "BENCH_scale.json" in
  output_string oc "{\n  \"bench\": \"scale\",\n  \"rows\": [\n";
  output_string oc
    (String.concat ",\n"
       (List.map (fun (n, g, e, r, c) -> json_row n g e r c) rows));
  output_string oc "\n  ],\n";
  Printf.fprintf oc "  \"shards\": [\n%s\n  ],\n"
    (String.concat ",\n"
       (List.map
          (fun row ->
            Printf.sprintf
              "    {\"shards\": %d, \"makespan_virtual_s\": %.6f, \
               \"speedup_vs_serial\": %.2f, \"wall_min_ms\": %.1f, \
               \"wall_spread_ms\": %.1f, \"wall_repeats\": %d, \
               \"digest_identical\": %b}"
              row.sh_run.H.s_shards row.sh_run.H.s_makespan (shard_speedup row)
              (1000.0 *. row.sh_wall.H.t_min)
              (1000.0 *. row.sh_wall.H.t_spread)
              row.sh_wall.H.t_repeats digests_ok)
          shard_rows));
  Printf.fprintf oc
    "  \"schedulers\": {\"heap_events\": %d, \"wheel_events\": %d, \"virtual_end\": %.6f, \"identical\": %b}\n"
    heap.sc_events wheel.sc_events wheel.sc_virtual_end sched_ok;
  output_string oc "}\n";
  close_out oc;
  H.note "wrote BENCH_scale.json";
  H.write_metrics ~bench:"scale" metrics_hub

(* Standalone smoke for @bench-check: the scenario under the wheel
   against the recorded heap results, failing the build on any
   virtual-time divergence. *)
let run_schedcheck () =
  H.section "Scheduler equivalence (recorded binary heap vs timing wheel)";
  let heap, wheel = bench_schedulers () in
  H.note
    "heap: %d events, clock %.6f | wheel: %d events, clock %.6f | digest %s"
    heap.sc_events heap.sc_virtual_end wheel.sc_events wheel.sc_virtual_end
    (if heap = wheel then "identical" else "DIVERGED");
  if heap <> wheel then
    failwith "scheduler check: wheel diverged from the reference heap"

let () =
  H.register ~id:"scale"
    ~descr:"wall-clock scaling: ordered getPerflow, allocation, shards" run;
  H.register ~id:"schedcheck"
    ~descr:
      "timing wheel vs recorded binary heap: virtual-time equivalence smoke"
    run_schedcheck
