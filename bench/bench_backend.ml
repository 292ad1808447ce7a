(* State-backend economics (the FlexState-style redesign): what does it
   cost to keep a hot standby ready for a surprise failure, and what
   does a [move] cost once instances stop owning their state?

   Failover: an iptables-like NAT tracks n conntrack entries under
   sparse keepalives and a steady churn of new flows; the primary
   crashes without warning at [fail_at]. Two strategies ship state to
   the standby:

   - periodic full checkpoints (the copy-based baseline, two periods),
     bytes counted as the serialized chunk bytes of every checkpoint;
   - the replicated backend's per-packet delta stream (the Failover app
     in promote mode), bytes counted as delta-frame wire bytes
     including all framing overhead.

   We report bytes shipped and coverage at the crash instant: how many
   of the primary's live entries exist at the standby at all, and how
   many are byte-identical. Checkpoint transport is modeled out of band
   (direct impl-to-impl export/import with no virtual serialize cost,
   no framing bytes counted) — both choices favor the baseline, so the
   reported delta advantage is a floor. NF costs use [Costs.dummy]: at
   100k entries an iptables-cost full copy occupies ~11 virtual
   seconds, which only proves the baseline cannot run at checkpoint
   frequencies matching the delta stream's freshness; the byte and
   coverage comparison is the point of this bench.

   Move: the same NAT pair over local, shared and replicated backends.
   An in-scope move over a shared backend is a metadata flip and over a
   replicated pair the standby already holds the state — both must
   transfer zero state bytes.

   Sizes come from OPENNF_BACKEND_SIZES (e.g. "10k 100k"), defaulting
   to 10k and 100k. Emits BENCH_backend.json (+ METRICS_backend.json).
   All JSON fields are virtual-time or byte counts, so the committed
   baseline is byte-identical run to run. [backendcheck] is the
   @bench-check smoke: replicated-vs-local digest and packet-order
   equality, 100% replicated coverage, zero-byte shared/replicated
   moves, a >= 5x byte advantage over the fast checkpoint, and
   reconciliation of the observability counters against the bench's own
   totals — any miss fails the build. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Faults = Opennf_sim.Faults
module Costs = Opennf_sb.Costs
module Nf_api = Opennf_sb.Nf_api
module Backend = Opennf_state.Backend
module Chunk = Opennf_state.Chunk
module Nat = Opennf_nfs.Nat
module Failover = Opennf_apps.Failover
open Opennf_net
open Opennf
module H = Harness

let default_sizes = [ 10_000; 100_000 ]

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
  match Sys.getenv_opt "OPENNF_BACKEND_SIZES" with
  | Some s -> parse_sizes s
  | None -> default_sizes

(* --- workload ------------------------------------------------------------ *)

(* Establishment ramp, then sparse keepalives round-robin over every
   live flow plus a steady churn of new flows. No teardown: the
   conntrack table must be full at the crash. Churn stops shortly
   before [fail_at] so every flow a keepalive can hit was seen by the
   primary (SYNs racing the reroute window would otherwise create
   flows that exist nowhere, polluting the invalid-packet signal). *)

let t_up = 0.05
let t_ramp_end = 0.45
let t_steady = 0.5
let t_end = 1.9
let fail_at = 1.5
let snap_at = fail_at +. 0.01
let reroute_at = fail_at +. 0.05
let churn_period = 0.1
let ka_per_flow = 0.2 (* keepalive pps per established flow *)
let fast_period = 0.03
let slow_period = 0.3

let base_key i =
  Flow.make
    ~src:(Ipaddr.of_int (0x0A000000 lor (i lsr 6)))
    ~dst:(Ipaddr.of_int 0xC0A80101)
    ~sport:(1024 + (i land 63))
    ~dport:80 ()

let churn_key i =
  Flow.make
    ~src:(Ipaddr.of_int (0x0B000000 lor (i lsr 6)))
    ~dst:(Ipaddr.of_int 0xC0A80102)
    ~sport:(1024 + (i land 63))
    ~dport:443 ()

let build_workload ~flows =
  let gen = Opennf_trace.Gen.create ~seed:11 () in
  let acc = ref [] in
  let n = ref 0 in
  let emit ~at ~key ?flags ?seq () =
    incr n;
    acc := Opennf_trace.Gen.packet gen ~at ~key ?flags ?seq () :: !acc
  in
  (* Establishment ramp: SYN / SYN+ACK per base flow across the ramp. *)
  let est_dt = (t_ramp_end -. t_up) /. float_of_int (2 * flows) in
  let births = ref [] in
  for i = 0 to flows - 1 do
    let k = base_key i in
    let t0 = t_up +. (float_of_int (2 * i) *. est_dt) in
    emit ~at:t0 ~key:k ~flags:[ Packet.Syn ] ();
    emit ~at:(t0 +. est_dt) ~key:(Flow.reverse k)
      ~flags:[ Packet.Syn; Packet.Ack ] ~seq:1 ();
    births := (t0 +. est_dt, k) :: !births
  done;
  (* Churn: a batch of fresh flows every [churn_period] through the
     steady phase, stopping before the crash. *)
  let per_batch = max 1 (flows / 100) in
  let batch = ref 0 in
  let t = ref (t_steady +. 0.02) in
  while !t < fail_at -. 0.05 do
    for j = 0 to per_batch - 1 do
      let k = churn_key ((!batch * per_batch) + j) in
      emit ~at:!t ~key:k ~flags:[ Packet.Syn ] ();
      emit ~at:(!t +. 0.001) ~key:(Flow.reverse k)
        ~flags:[ Packet.Syn; Packet.Ack ] ~seq:1 ()
    done;
    List.iter
      (fun j -> births := (!t +. 0.001, churn_key ((!batch * per_batch) + j)) :: !births)
      (List.init per_batch Fun.id);
    incr batch;
    t := !t +. churn_period
  done;
  let births =
    Array.of_list
      (List.sort
         (fun (a, ka) (b, kb) ->
           match Float.compare a b with 0 -> Flow.compare ka kb | c -> c)
         !births)
  in
  (* Keepalives: aggregate [ka_per_flow * flows] pps, round-robin over
     every flow established by the send instant. *)
  let ka_dt = 1.0 /. (ka_per_flow *. float_of_int flows) in
  let alive = ref 0 in
  let idx = ref 0 in
  let t = ref t_steady in
  while !t < t_end do
    while !alive < Array.length births && fst births.(!alive) <= !t do
      incr alive
    done;
    if !alive > 0 then begin
      let _, k = births.(!idx mod !alive) in
      emit ~at:!t ~key:k ~flags:[ Packet.Ack ] ~seq:(2 + !idx) ();
      incr idx
    end;
    t := !t +. ka_dt
  done;
  (!acc, !n)

(* --- testbed ------------------------------------------------------------- *)

type bed = {
  fab : Fabric.t;
  obs : Opennf_obs.Hub.t;
  nat1 : Nat.t;
  nat2 : Nat.t;
  nf1 : Controller.nf;
  nf2 : Controller.nf;
  packets : int;
}

let bed ~flows ~make_backends () =
  let obs = Opennf_obs.Hub.create ~metrics:true () in
  let fab = Fabric.create ~seed:9 ~obs () in
  let b1, b2 = make_backends fab in
  (* Full u16 translation-port range: a single NAT instance can track at
     most 65,535 concurrent flows, so the 100k row runs the table
     saturated — offered flows beyond capacity are dropped (and
     counted) by the NF, and the "live" column reports what the table
     actually held at the crash. *)
  let nat1 = Nat.create ?backend:b1 ~port_base:1 ~port_limit:65535 () in
  let nat2 = Nat.create ?backend:b2 ~port_base:1 ~port_limit:65535 () in
  let nf1, _ =
    Fabric.add_nf ?backend:b1 fab ~name:"nat1" ~impl:(Nat.impl nat1)
      ~costs:Costs.dummy
  in
  let nf2, _ =
    Fabric.add_nf ?backend:b2 fab ~name:"nat2" ~impl:(Nat.impl nat2)
      ~costs:Costs.dummy
  in
  let sched, packets = build_workload ~flows in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) sched;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  { fab; obs; nat1; nat2; nf1; nf2; packets }

let no_backends _fab = (None, None)

(* --- digests and coverage ------------------------------------------------ *)

let chunk_str (c : Chunk.t) = c.Chunk.kind ^ "|" ^ c.Chunk.data

let digest (i : Nf_api.impl) =
  i.Nf_api.list_perflow Filter.any
  |> List.filter_map (fun fl ->
         Option.map chunk_str (i.Nf_api.export_perflow fl))
  |> List.sort String.compare

type coverage = { live : int; present : int; exact : int }

let zero_cov = { live = 0; present = 0; exact = 0 }

let coverage ~(primary : Nf_api.impl) ~(standby : Nf_api.impl) =
  List.fold_left
    (fun acc fl ->
      match primary.Nf_api.export_perflow fl with
      | None -> acc
      | Some pc -> (
        let acc = { acc with live = acc.live + 1 } in
        match standby.Nf_api.export_perflow fl with
        | None -> acc
        | Some sc ->
          {
            acc with
            present = acc.present + 1;
            exact = (acc.exact + if chunk_str pc = chunk_str sc then 1 else 0);
          }))
    zero_cov
    (primary.Nf_api.list_perflow Filter.any)

(* --- failover strategies ------------------------------------------------- *)

(* Out-of-band full checkpoint: what a periodic Copy_op would ship,
   counted from the real serialized chunks but without charging the
   virtual serialize/transfer time (see the header comment). *)
let checkpoint ~(src : Nf_api.impl) ~(dst : Nf_api.impl) =
  List.fold_left
    (fun bytes fl ->
      match src.Nf_api.export_perflow fl with
      | None -> bytes
      | Some c ->
        dst.Nf_api.import_perflow fl c;
        bytes + Chunk.size c)
    0
    (src.Nf_api.list_perflow Filter.any)

type fo_result = {
  f_label : string;
  f_period : float option;
  f_bytes : int;
  f_cov : coverage;
  f_invalid : int; (* standby invalid-packet drops, all post-reroute *)
  f_recovered : float option;
  f_packets : int;
  f_primary_digest : string list;
  f_standby_digest : string list;
  f_order : int list; (* primary's processed packet ids, frozen at crash *)
  f_reconciled : bool;
}

let snapshot b cov pdig sdig =
  Engine.schedule_at b.fab.engine snap_at (fun () ->
      cov := coverage ~primary:(Nat.impl b.nat1) ~standby:(Nat.impl b.nat2);
      pdig := digest (Nat.impl b.nat1);
      sdig := digest (Nat.impl b.nat2))

let run_periodic ~flows ~period =
  let b = bed ~flows ~make_backends:no_backends () in
  let bytes = ref 0 in
  let cov = ref zero_cov and pdig = ref [] and sdig = ref [] in
  Faults.crash_at b.fab.faults ~node:"nat1" fail_at;
  let rec tick t =
    if t < fail_at then begin
      Engine.schedule_at b.fab.engine t (fun () ->
          bytes :=
            !bytes + checkpoint ~src:(Nat.impl b.nat1) ~dst:(Nat.impl b.nat2));
      tick (t +. period)
    end
  in
  tick (t_up +. period);
  snapshot b cov pdig sdig;
  H.run_at b.fab ~at:reroute_at (fun () ->
      Controller.set_route b.fab.ctrl Filter.any b.nf2);
  {
    f_label = Printf.sprintf "periodic copy, %.0f ms" (1000.0 *. period);
    f_period = Some period;
    f_bytes = !bytes;
    f_cov = !cov;
    f_invalid = Nat.invalid_count b.nat2;
    f_recovered = None;
    f_packets = b.packets;
    f_primary_digest = !pdig;
    f_standby_digest = !sdig;
    f_order = Audit.processed_order ~nf:"nat1" b.fab.audit;
    f_reconciled = true;
  }

(* The oracle for the equality checks: same bed, same crash, no backup
   machinery at all. The primary's behavior must be bit-identical to
   the replicated run's. *)
let run_local_oracle ~flows =
  let b = bed ~flows ~make_backends:no_backends () in
  let cov = ref zero_cov and pdig = ref [] and sdig = ref [] in
  Faults.crash_at b.fab.faults ~node:"nat1" fail_at;
  snapshot b cov pdig sdig;
  H.run_at b.fab ~at:reroute_at (fun () ->
      Controller.set_route b.fab.ctrl Filter.any b.nf2);
  {
    f_label = "no backup (oracle)";
    f_period = None;
    f_bytes = 0;
    f_cov = !cov;
    f_invalid = Nat.invalid_count b.nat2;
    f_recovered = None;
    f_packets = b.packets;
    f_primary_digest = !pdig;
    f_standby_digest = !sdig;
    f_order = Audit.processed_order ~nf:"nat1" b.fab.audit;
    f_reconciled = true;
  }

let run_replicated ~flows =
  let pair = ref None in
  let b =
    bed ~flows
      ~make_backends:(fun fab ->
        let p, s =
          Backend.replicated_pair fab.Fabric.engine ~name:"fo"
            ~faults:fab.Fabric.faults ()
        in
        pair := Some (p, s);
        (Some p, Some s))
      ()
  in
  let app = ref None in
  let cov = ref zero_cov and pdig = ref [] and sdig = ref [] in
  Faults.crash_at b.fab.faults ~node:"nat1" fail_at;
  Proc.spawn b.fab.engine (fun () ->
      let a = Failover.init_standby b.fab.ctrl ~normal:b.nf1 ~standby:b.nf2 () in
      if not (Failover.replicated a) then
        failwith "bench backend: Failover app did not detect the pair";
      app := Some a);
  snapshot b cov pdig sdig;
  H.run_at b.fab ~at:reroute_at (fun () ->
      Failover.fail_over (Option.get !app) ~filter:Filter.any);
  let app = Option.get !app in
  let primary_be, _ = Option.get !pair in
  (* Reconcile the three byte counters: the backend's own stats, the
     Failover app's accessor, and the observability hub. *)
  let hub_bytes =
    Opennf_obs.Metrics.counter_value
      (Opennf_obs.Hub.metrics b.obs)
      "backend.delta.bytes"
  in
  let bytes = Backend.delta_bytes primary_be in
  let reconciled =
    bytes = Failover.delta_bytes app
    && bytes = hub_bytes
    && Failover.bulk_bytes app = 0
  in
  let r =
    {
      f_label = "replicated delta stream";
      f_period = None;
      f_bytes = bytes;
      f_cov = !cov;
      f_invalid = Nat.invalid_count b.nat2;
      f_recovered = Failover.recovered_at app;
      f_packets = b.packets;
      f_primary_digest = !pdig;
      f_standby_digest = !sdig;
      f_order = Audit.processed_order ~nf:"nat1" b.fab.audit;
      f_reconciled = reconciled;
    }
  in
  (r, b)

(* --- move flavors -------------------------------------------------------- *)

type mv_result = {
  m_backend : string;
  m_bytes : int;
  m_chunks : int;
  m_op_s : float;
}

let run_move ~flows ~flavor =
  let label, make_backends =
    match flavor with
    | `Local -> ("local", no_backends)
    | `Shared ->
      ( "shared",
        fun _fab ->
          let b = Backend.shared ~name:"pool" () in
          (Some b, Some b) )
    | `Replicated ->
      ( "replicated",
        fun (fab : Fabric.t) ->
          let p, s =
            Backend.replicated_pair fab.Fabric.engine ~name:"mv"
              ~faults:fab.Fabric.faults ()
          in
          (Some p, Some s) )
  in
  let b = bed ~flows ~make_backends () in
  let report = ref None in
  H.run_at b.fab ~at:(t_end +. 0.1) (fun () ->
      report :=
        Some
          (Op_error.ok_exn
             (Move.run b.fab.ctrl
                (Move.spec ~src:b.nf1 ~dst:b.nf2 ~filter:Filter.any
                   ~guarantee:Move.Loss_free ~parallel:true ()))));
  let r = Option.get !report in
  {
    m_backend = label;
    m_bytes = r.Move.state_bytes;
    m_chunks = r.Move.per_chunks;
    m_op_s = Move.duration r;
  }

(* --- per-size sweep ------------------------------------------------------ *)

type size_result = {
  s_flows : int;
  s_packets : int;
  s_failover : fo_result list;
  s_ratio : float; (* fast-checkpoint bytes / delta bytes *)
  s_moves : mv_result list;
  s_reconciled : bool;
}

let sweep_size ~flows =
  let fast = run_periodic ~flows ~period:fast_period in
  let slow = run_periodic ~flows ~period:slow_period in
  let rep, rep_bed = run_replicated ~flows in
  let moves =
    [
      run_move ~flows ~flavor:`Local;
      run_move ~flows ~flavor:`Shared;
      run_move ~flows ~flavor:`Replicated;
    ]
  in
  let ratio = float_of_int fast.f_bytes /. float_of_int (max 1 rep.f_bytes) in
  ( {
      s_flows = flows;
      s_packets = rep.f_packets;
      s_failover = [ fast; slow; rep ];
      s_ratio = ratio;
      s_moves = moves;
      s_reconciled = rep.f_reconciled;
    },
    rep_bed )

(* --- reporting ----------------------------------------------------------- *)

let pct part whole =
  Printf.sprintf "%.1f%%" (100.0 *. float_of_int part /. float_of_int (max 1 whole))

let fo_row (r : fo_result) =
  [
    r.f_label;
    H.mb r.f_bytes;
    string_of_int r.f_cov.live;
    pct r.f_cov.present r.f_cov.live;
    pct r.f_cov.exact r.f_cov.live;
    string_of_int r.f_invalid;
    (match r.f_recovered with
    | Some t -> Printf.sprintf "%.0f ms" (1000.0 *. (t -. fail_at))
    | None -> "-");
  ]

let mv_row (m : mv_result) =
  [
    m.m_backend;
    string_of_int m.m_bytes;
    string_of_int m.m_chunks;
    Printf.sprintf "%.1f ms" (1000.0 *. m.m_op_s);
  ]

let json_fo (r : fo_result) =
  Printf.sprintf
    "        {\"strategy\": %S, \"period_s\": %s, \"bytes\": %d, \"live\": %d, \
     \"present\": %d, \"exact\": %d, \"post_fail_invalid\": %d, \
     \"recovered_s\": %s}"
    r.f_label
    (match r.f_period with Some p -> Printf.sprintf "%.3f" p | None -> "null")
    r.f_bytes r.f_cov.live r.f_cov.present r.f_cov.exact r.f_invalid
    (match r.f_recovered with
    | Some t -> Printf.sprintf "%.6f" t
    | None -> "null")

let json_mv (m : mv_result) =
  Printf.sprintf
    "        {\"backend\": %S, \"state_bytes\": %d, \"chunks\": %d, \"op_s\": %.6f}"
    m.m_backend m.m_bytes m.m_chunks m.m_op_s

let json_size (s : size_result) =
  String.concat "\n"
    [
      Printf.sprintf "    {\"flows\": %d, \"packets\": %d," s.s_flows s.s_packets;
      "      \"failover\": [";
      String.concat ",\n" (List.map json_fo s.s_failover);
      "      ],";
      Printf.sprintf "      \"bytes_ratio_fast_copy_vs_delta\": %.2f," s.s_ratio;
      "      \"move\": [";
      String.concat ",\n" (List.map json_mv s.s_moves);
      "      ],";
      Printf.sprintf "      \"delta_counter_reconciled\": %b}" s.s_reconciled;
    ]

let write_json results =
  let oc = open_out "BENCH_backend.json" in
  output_string oc "{\n  \"bench\": \"backend\",\n";
  Printf.fprintf oc
    "  \"workload\": {\"fail_at\": %.2f, \"keepalive_per_flow_pps\": %.2f, \
     \"churn_batch_frac\": 0.01, \"fast_period_s\": %.3f, \"slow_period_s\": \
     %.3f},\n"
    fail_at ka_per_flow fast_period slow_period;
  output_string oc "  \"sizes\": [\n";
  output_string oc (String.concat ",\n" (List.map json_size results));
  output_string oc "\n  ]\n}\n";
  close_out oc;
  H.note "wrote BENCH_backend.json"

let run () =
  H.section
    "State backends: checkpoint vs delta-stream failover, move cost by backend";
  let results_and_beds = List.map (fun flows -> sweep_size ~flows) (sizes ()) in
  let results = List.map fst results_and_beds in
  List.iter
    (fun (s : size_result) ->
      H.note "%d flows, %d packets:" s.s_flows s.s_packets;
      H.table
        ~header:
          [
            "standby strategy"; "shipped (MB)"; "live @fail"; "present";
            "byte-exact"; "invalid pkts"; "recovery";
          ]
        (List.map fo_row s.s_failover);
      H.note "  fast-checkpoint / delta byte ratio: %.2fx%s" s.s_ratio
        (if s.s_reconciled then "" else "  [COUNTER MISMATCH]");
      H.table
        ~header:[ "move backend"; "state bytes"; "chunks"; "op time" ]
        (List.map mv_row s.s_moves))
    results;
  H.note
    "Expected shape: checkpoints fresh enough to matter re-ship the whole \
     table over and over; the delta stream spends bytes proportional to the \
     packet rate and is byte-exact at the crash instant; shared and \
     replicated moves ship zero state bytes.";
  write_json results;
  (* Metrics snapshot from the largest size's replicated failover run:
     the backend.delta.* counters land next to the usual engine series. *)
  (match List.rev results_and_beds with
  | (last, last_bed) :: _ ->
    let metrics = Opennf_obs.Hub.metrics last_bed.obs in
    Opennf_obs.Metrics.set
      (Opennf_obs.Metrics.gauge metrics "backend.bench.flows")
      (float_of_int last.s_flows);
    Opennf_obs.Metrics.set
      (Opennf_obs.Metrics.gauge metrics "backend.bench.copy_delta_ratio")
      last.s_ratio;
    H.write_metrics ~bench:"backend" last_bed.obs
  | [] -> ())

(* --- @bench-check smoke -------------------------------------------------- *)

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then failwith ("backendcheck: " ^ msg)) fmt

let run_backendcheck () =
  H.section "backend check: replicated == local, zero-byte moves, counters";
  let flows = 2_000 in
  let oracle = run_local_oracle ~flows in
  let fast = run_periodic ~flows ~period:fast_period in
  let slow = run_periodic ~flows ~period:slow_period in
  let rep, _bed = run_replicated ~flows in
  (* Replication must not perturb the primary: same packets processed in
     the same order, bit-identical state at the crash. *)
  check (rep.f_order = oracle.f_order) "replicated run diverged from local (processed order)";
  check
    (rep.f_primary_digest = oracle.f_primary_digest)
    "replicated run diverged from local (primary state digest)";
  (* Surprise-failover coverage: every live entry present and
     byte-identical at the standby, no invalid drops after reroute. *)
  check (rep.f_cov.live > 0) "replicated run tracked no flows";
  check
    (rep.f_cov.present = rep.f_cov.live && rep.f_cov.exact = rep.f_cov.live)
    "replicated coverage below 100%% (%d live, %d present, %d exact)"
    rep.f_cov.live rep.f_cov.present rep.f_cov.exact;
  check
    (rep.f_standby_digest = rep.f_primary_digest)
    "standby digest differs from crashed primary";
  check (rep.f_invalid = 0) "replicated standby dropped %d invalid packets"
    rep.f_invalid;
  check (rep.f_recovered <> None) "Failover app never recovered";
  (* The copy-based baseline at matching freshness must cost >= 5x the
     bytes, and at relaxed freshness must be visibly stale. *)
  check
    (fast.f_bytes >= 5 * rep.f_bytes)
    "fast checkpoint only %d bytes vs delta %d (< 5x)" fast.f_bytes rep.f_bytes;
  check
    (slow.f_cov.present < slow.f_cov.live)
    "slow checkpoint unexpectedly fresh (%d/%d present)" slow.f_cov.present
    slow.f_cov.live;
  (* In-scope moves over shared and replicated backends ship nothing. *)
  let mv_local = run_move ~flows ~flavor:`Local in
  let mv_shared = run_move ~flows ~flavor:`Shared in
  let mv_rep = run_move ~flows ~flavor:`Replicated in
  check (mv_local.m_bytes > 0) "local move shipped no state";
  check
    (mv_shared.m_bytes = 0 && mv_shared.m_chunks = 0)
    "shared move shipped %d bytes" mv_shared.m_bytes;
  check
    (mv_rep.m_bytes = 0 && mv_rep.m_chunks = 0)
    "replicated move shipped %d bytes" mv_rep.m_bytes;
  (* Observability counters agree with the bench's own totals. *)
  check rep.f_reconciled "backend.delta.bytes counter disagrees with bench total";
  H.note
    "backend check OK: order/digest equality, 100%% coverage, 0-byte moves, \
     %.1fx byte advantage"
    (float_of_int fast.f_bytes /. float_of_int (max 1 rep.f_bytes))

let () =
  H.register ~id:"backend"
    ~descr:"state backends: checkpoint vs delta failover, move by backend" run;
  H.register ~id:"backendcheck"
    ~descr:"backend smoke: replicated == local, 0-byte moves, counters"
    run_backendcheck
