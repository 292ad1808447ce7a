(* Data-path indexing benchmark (ISSUE 1).

   Measures, at 10k / 100k / 1M installed flows:

   - flow-table lookup cost (and packets/sec) for the indexed path —
     exact-match hash + priority-bucketed wildcards — against the
     linear-scan oracle ([Oracle.Flowtable.lookup],
     the seed implementation's shape);
   - exact-filter [Store.Perflow.matching] (the getPerflow hot path of a
     single-flow move) against the fold-based reference;
   - end-to-end wall-clock and virtual latency of a loss-free
     single-flow move out of a PRADS instance holding that many flows.

   Emits machine-readable BENCH_datapath.json next to the working
   directory so future PRs can track the trajectory. *)

module H = Harness
module Rng = Opennf_util.Rng
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf

let sizes = [ 10_000; 100_000; 1_000_000 ]

(* Deterministic distinct flows: 64 per source host, all to one
   destination. *)
let key_of_int i =
  Flow.make
    ~src:(Ipaddr.of_int (0x0A000000 lor (i lsr 6)))
    ~dst:(Ipaddr.of_int 0xC0A80101)
    ~sport:(1024 + (i land 63))
    ~dport:80 ()

let packet_of_int i =
  Packet.create ~id:i ~key:(key_of_int i) ~sent_at:0.0 ()

let seconds_per f ~iters =
  let t0 = Sys.time () in
  for _ = 1 to iters do
    f ()
  done;
  (Sys.time () -. t0) /. float_of_int iters

(* Best of [reps] repetitions: the minimum discards GC/scheduler noise,
   the standard microbenchmark estimator. *)
let best_of ?(reps = 5) f ~iters =
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (seconds_per f ~iters)
  done;
  !best

let ns v = 1e9 *. v

(* --- flow-table lookup -------------------------------------------------- *)

type ft_row = { ft_cold : float; ft_warm : float; ft_ref : float }

let bench_flowtable n =
  let table = Flowtable.create () in
  for i = 0 to n - 1 do
    let f = Filter.of_key (key_of_int i) in
    Flowtable.install table ~cookie:i ~priority:100
      ~filters:[ f; Filter.mirror f ]
      ~actions:[ Flowtable.Forward "nf" ]
  done;
  (* One low-priority catch-all, as a realistic wildcard fallback. *)
  Flowtable.install table ~cookie:n ~priority:10 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.To_controller ];
  (* Fixed-size active working set at every table size: the controlled
     variable is installed-flow count, the traffic mix is held constant. *)
  let rng = Rng.create ~seed:17 in
  let sample =
    Array.init 4096 (fun _ -> packet_of_int (Rng.int rng n))
  in
  let m = Array.length sample in
  let idx = ref 0 in
  let lookup_next () =
    ignore (Flowtable.lookup table sample.(!idx));
    idx := if !idx + 1 >= m then 0 else !idx + 1
  in
  (* Cold: first visit of each sampled flow. Warm: the same flows again,
     their index slots and rows now in the CPU caches. *)
  let ft_cold = seconds_per lookup_next ~iters:m in
  let ft_warm = best_of lookup_next ~iters:(4 * m) in
  let ref_iters = max 3 (200_000 / n) in
  let ft_ref =
    seconds_per
      (fun () ->
        ignore (Oracle.Flowtable.lookup table sample.(!idx));
        idx := if !idx + 1 >= m then 0 else !idx + 1)
      ~iters:ref_iters
  in
  { ft_cold; ft_warm; ft_ref }

(* --- per-flow state getters --------------------------------------------- *)

type store_row = {
  st_get : float;  (* NF-side getPerflow: list matching flowids + export. *)
  st_get_ref : float;  (* Same, but enumerating via the reference fold. *)
  st_exact : float;  (* Raw indexed Store.Perflow.matching probe. *)
  st_exact_ref : float;  (* Raw fold-based reference. *)
}

let bench_store n =
  (* A PRADS instance holding [n] flows serves the NF-level getter; a
     parallel plain store with the same keys carries the raw probes. *)
  let prads = Opennf_nfs.Prads.create () in
  let impl = Opennf_nfs.Prads.impl prads in
  let store = Opennf_state.Store.Perflow.create () in
  for i = 0 to n - 1 do
    impl.Opennf_sb.Nf_api.process_packet (packet_of_int i);
    Opennf_state.Store.Perflow.set store (key_of_int i) i
  done;
  (* Fixed-size set of targeted flows at every store size, mirroring
     the lookup bench's controlled working set. *)
  let rng = Rng.create ~seed:23 in
  let exact_filters =
    Array.init 1024 (fun _ -> Filter.of_key (key_of_int (Rng.int rng n)))
  in
  let cycle arr =
    let i = ref 0 in
    fun () ->
      let v = arr.(!i) in
      i := if !i + 1 >= Array.length arr then 0 else !i + 1;
      v
  in
  let next_exact = cycle exact_filters in
  let export flowid = ignore (impl.Opennf_sb.Nf_api.export_perflow flowid) in
  let st_get =
    best_of
      (fun () ->
        List.iter export (impl.Opennf_sb.Nf_api.list_perflow (next_exact ())))
      ~iters:20_000
  in
  let st_exact =
    best_of
      (fun () -> ignore (Opennf_state.Store.Perflow.matching store (next_exact ())))
      ~iters:50_000
  in
  let ref_iters = max 3 (100_000 / n) in
  let st_get_ref =
    seconds_per
      (fun () ->
        Oracle.Store.perflow_matching store (next_exact ())
        |> List.iter (fun (k, _) -> export (Filter.of_key k)))
      ~iters:ref_iters
  in
  let st_exact_ref =
    seconds_per
      (fun () ->
        ignore (Oracle.Store.perflow_matching store (next_exact ())))
      ~iters:ref_iters
  in
  { st_get; st_get_ref; st_exact; st_exact_ref }

(* --- end-to-end move ---------------------------------------------------- *)

type move_row = { mv_wall : float; mv_virtual : float }

(* Single-flow loss-free move out of a PRADS instance already holding
   [n] flows of state. The state is preloaded directly into the NF
   implementation (outside the simulation) so the bench isolates the
   move itself. [obs] is shared across the sizes, so one registry (and
   one trace buffer) accumulates all three moves — the critical-path
   reconciliation below sums them against [op.duration_s]. *)
let bench_move ~obs n =
  let fab = Fabric.create ~seed:5 ~obs () in
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let nf1, _rt1 =
    Fabric.add_nf fab ~name:"prads1" ~impl:(Opennf_nfs.Prads.impl prads1)
      ~costs:Costs.prads
  in
  let nf2, _rt2 =
    Fabric.add_nf fab ~name:"prads2" ~impl:(Opennf_nfs.Prads.impl prads2)
      ~costs:Costs.prads
  in
  let impl1 = Opennf_nfs.Prads.impl prads1 in
  for i = 0 to n - 1 do
    impl1.Opennf_sb.Nf_api.process_packet (packet_of_int i)
  done;
  let filter = Filter.of_key (key_of_int (n / 2)) in
  let wall = ref 0.0 and virt = ref 0.0 in
  Fabric.run_proc fab (fun () ->
      Controller.set_route fab.ctrl Filter.any nf1;
      let t0 = Sys.time () in
      let report =
        Op_error.ok_exn
          (Move.run fab.ctrl (Move.spec ~src:nf1 ~dst:nf2 ~filter ()))
      in
      wall := Sys.time () -. t0;
      virt := Move.duration report);
  { mv_wall = !wall; mv_virtual = !virt }

(* --- driver -------------------------------------------------------------- *)

let json_row n ft st mv =
  Printf.sprintf
    {|    {"flows": %d, "ft_lookup_cold_ns": %.1f, "ft_lookup_warm_ns": %.1f, "ft_lookup_reference_ns": %.1f, "ft_pps_indexed": %.0f, "get_perflow_ns": %.1f, "get_perflow_reference_ns": %.1f, "store_exact_ns": %.1f, "store_exact_reference_ns": %.1f, "move_wall_ms": %.3f, "move_virtual_ms": %.3f}|}
    n (ns ft.ft_cold) (ns ft.ft_warm) (ns ft.ft_ref)
    (1.0 /. ft.ft_warm)
    (ns st.st_get) (ns st.st_get_ref)
    (ns st.st_exact) (ns st.st_exact_ref)
    (1000.0 *. mv.mv_wall)
    (1000.0 *. mv.mv_virtual)

let run () =
  H.section "Data-plane indexing (flow-table lookup, getPerflow, move)";
  let obs = Opennf_obs.Hub.create ~trace:true () in
  let rows =
    List.map
      (fun n ->
        let ft = bench_flowtable n in
        Gc.compact ();
        let st = bench_store n in
        Gc.compact ();
        let mv = bench_move ~obs n in
        Gc.compact ();
        (n, ft, st, mv))
      sizes
  in
  H.table
    ~header:
      [
        "flows"; "lookup ns (warm)"; "lookup ns (cold)"; "lookup ns (ref)";
        "Mpps"; "getPf ns"; "getPf ns (ref)"; "move ms (wall)";
        "move ms (virt)";
      ]
    (List.map
       (fun (n, ft, st, mv) ->
         [
           string_of_int n;
           Printf.sprintf "%.0f" (ns ft.ft_warm);
           Printf.sprintf "%.0f" (ns ft.ft_cold);
           Printf.sprintf "%.0f" (ns ft.ft_ref);
           Printf.sprintf "%.2f" (1e-6 /. ft.ft_warm);
           Printf.sprintf "%.0f" (ns st.st_get);
           Printf.sprintf "%.0f" (ns st.st_get_ref);
           Printf.sprintf "%.3f" (1000.0 *. mv.mv_wall);
           Printf.sprintf "%.3f" (1000.0 *. mv.mv_virtual);
         ])
       rows);
  (let first (n, ft, st, _) = (n, ft, st) in
   let _, ft0, st0 = first (List.hd rows) in
   let _, ftN, stN = first (List.nth rows (List.length rows - 1)) in
   let ratio a b = b /. a in
   H.note "10k -> 1M growth: lookup %.2fx (reference %.1fx), getPerflow %.2fx (reference %.1fx)"
     (ratio ft0.ft_warm ftN.ft_warm)
     (ratio ft0.ft_ref ftN.ft_ref)
     (ratio st0.st_get stN.st_get)
     (ratio st0.st_get_ref stN.st_get_ref));
  let oc = open_out "BENCH_datapath.json" in
  output_string oc "{\n  \"bench\": \"datapath\",\n  \"rows\": [\n";
  output_string oc
    (String.concat ",\n"
       (List.map (fun (n, ft, st, mv) -> json_row n ft st mv) rows));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  H.note "wrote BENCH_datapath.json";
  (* Attribute each move's virtual time to protocol phases and prove the
     attribution lost nothing: the span-derived total must equal the
     [op.duration_s] histogram's running sum bit for bit. *)
  let ops = Opennf_obs.Critical_path.analyze (Opennf_obs.Hub.trace obs) in
  let cp_total = Opennf_obs.Critical_path.total ops in
  let hist_sum =
    match
      List.assoc_opt "op.duration_s"
        (Opennf_obs.Metrics.hists (Opennf_obs.Hub.metrics obs))
    with
    | Some h -> Opennf_util.Stats.Histogram.sum h
    | None -> 0.0
  in
  H.note "reconcile: critical-path total %.9fs vs op.duration_s sum %.9fs (%s, %d moves)"
    cp_total hist_sum
    (if Float.equal cp_total hist_sum then "exact" else "MISMATCH")
    (List.length ops);
  if not (Float.equal cp_total hist_sum) then
    failwith "datapath: critical-path total does not reconcile";
  Opennf_obs.Critical_path.observe (Opennf_obs.Hub.metrics obs) ops;
  H.write_metrics ~bench:"datapath" obs

let () = H.register ~id:"datapath" ~descr:"indexed data path: lookup/getPerflow/move scaling" run
