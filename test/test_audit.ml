(* Unit tests for the audit ledger itself — the checker the safety
   claims rest on must be right. *)

module Engine = Opennf_sim.Engine
open Opennf_net

let ip = Ipaddr.v
let key = Flow.make ~src:(ip 10 0 0 1) ~dst:(ip 172 16 0 1) ~sport:1 ~dport:80 ()
let other = Flow.make ~src:(ip 9 9 9 9) ~dst:(ip 8 8 8 8) ~sport:2 ~dport:443 ()

let pkt id k = Packet.create ~id ~key:k ~sent_at:0.0 ()

let bed () =
  let e = Engine.create () in
  (e, Audit.create e)

let test_forwarded_order_dedupes () =
  let _, a = bed () in
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_forward a (pkt 2 key) ~dst:"nf1";
  Audit.log_forward a (pkt 1 key) ~dst:"nf2" (* relay of 1 *);
  Alcotest.(check (list int)) "first positions kept" [ 1; 2 ]
    (Audit.forwarded_order a)

let test_lost_and_processed () =
  let _, a = bed () in
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_forward a (pkt 2 key) ~dst:"nf1";
  Audit.log_forward a (pkt 3 key) ~dst:"elsewhere";
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  Alcotest.(check (list int)) "2 lost, 3 out of scope" [ 2 ]
    (Audit.lost a ~nfs:[ "nf1" ]);
  Alcotest.(check int) "processed count" 1 (Audit.processed_count ~nf:"nf1" a)

let test_duplicated () =
  let _, a = bed () in
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  Audit.log_process a (pkt 1 key) ~nf:"nf2";
  Audit.log_process a (pkt 2 key) ~nf:"nf1";
  Alcotest.(check (list int)) "id 1 twice" [ 1 ] (Audit.duplicated a)

let test_order_violations_detects_inversion () =
  let _, a = bed () in
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_forward a (pkt 2 key) ~dst:"nf1";
  Audit.log_process a (pkt 2 key) ~nf:"nf1";
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  Alcotest.(check (list (pair int int))) "inversion found" [ (1, 2) ]
    (Audit.order_violations a)

let test_order_violations_in_order_silent () =
  let _, a = bed () in
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_forward a (pkt 2 key) ~dst:"nf1";
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  Audit.log_process a (pkt 2 key) ~nf:"nf2";
  Alcotest.(check (list (pair int int))) "cross-instance but ordered" []
    (Audit.order_violations a)

let test_order_violations_filtered () =
  let _, a = bed () in
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_forward a (pkt 2 other) ~dst:"nf1";
  Audit.log_process a (pkt 2 other) ~nf:"nf1";
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  (* Globally inverted, but each flow alone is ordered. *)
  Alcotest.(check int) "global inversion" 1
    (List.length (Audit.order_violations a));
  Alcotest.(check (list (pair int int))) "per-flow clean" []
    (Audit.order_violations ~filter:(Filter.of_key key) a)

let test_arrival_vs_forward_order () =
  let _, a = bed () in
  (* Arrives 1 then 2, but 1 is diverted (no forward) and re-injected
     late: forwarding order is 2,1 while arrival order is 1,2. *)
  Audit.log_switch_arrival a (pkt 1 key);
  Audit.log_switch_arrival a (pkt 2 key);
  Audit.log_forward a (pkt 2 key) ~dst:"nf1";
  Audit.log_forward a (pkt 1 key) ~dst:"nf1";
  Audit.log_process a (pkt 2 key) ~nf:"nf1";
  Audit.log_process a (pkt 1 key) ~nf:"nf1";
  Alcotest.(check (list (pair int int))) "fine vs forwarding" []
    (Audit.order_violations a);
  Alcotest.(check (list (pair int int))) "violation vs arrival" [ (1, 2) ]
    (Audit.arrival_order_violations a)

let test_added_latency () =
  let e, a = bed () in
  Engine.schedule e ~delay:1.0 (fun () -> Audit.log_nf_arrival a (pkt 5 key) ~nf:"nf1");
  Engine.schedule e ~delay:1.5 (fun () -> Audit.log_process a (pkt 5 key) ~nf:"nf2");
  Engine.run e;
  match Audit.added_latency a ~pkt:5 with
  | Some l -> Alcotest.(check (float 1e-9)) "0.5s" 0.5 l
  | None -> Alcotest.fail "latency missing"

let test_evented_and_buffered_ids () =
  let _, a = bed () in
  Audit.log_evented a (pkt 1 key) ~nf:"nf1";
  Audit.log_evented a (pkt 2 key) ~nf:"nf2";
  Audit.log_buffered a (pkt 3 key) ~nf:"nf2";
  Alcotest.(check (list int)) "all events" [ 1; 2 ] (Audit.evented_ids a);
  Alcotest.(check (list int)) "per nf" [ 2 ] (Audit.evented_ids ~nf:"nf2" a);
  Alcotest.(check (list int)) "buffered" [ 3 ] (Audit.buffered_ids a)

(* --- row-chunk ledger == trace-backed oracle (random) --------------------- *)

module Hub = Opennf_obs.Hub
module Trace = Opennf_obs.Trace
module Oracle = Audit_oracle

(* The query surface both ledgers share, so one dump covers both. *)
module type LEDGER = sig
  type t

  val forwarded_order : ?filter:Filter.t -> t -> int list
  val processed_order : ?filter:Filter.t -> ?nf:string -> t -> int list
  val processed_count : ?nf:string -> t -> int
  val lost : ?filter:Filter.t -> t -> nfs:string list -> int list
  val duplicated : ?filter:Filter.t -> t -> int list
  val order_violations : ?filter:Filter.t -> t -> (int * int) list
  val arrival_order_violations : ?filter:Filter.t -> t -> (int * int) list
  val added_latency : t -> pkt:int -> float option
  val evented_ids : ?nf:string -> t -> int list
  val buffered_ids : ?nf:string -> t -> int list
  val process_time : t -> pkt:int -> float option
end

let nfs = [| "nf1"; "nf2"; "nf3" |]
let max_pkt = 12

let keys =
  [|
    key;
    Flow.reverse key;
    other;
    Flow.make ~src:(ip 10 0 0 2) ~dst:(ip 172 16 0 1) ~proto:Flow.Udp
      ~sport:5353 ~dport:53 ();
    (* Every row field at its extremes. *)
    Flow.make ~src:(ip 255 255 255 255) ~dst:(ip 0 0 0 0) ~proto:Flow.Icmp
      ~sport:0 ~dport:65535 ();
  |]

let filters =
  [ None; Some (Filter.of_key key); Some (Filter.of_src_host (ip 9 9 9 9));
    Some (Filter.make ~proto:Flow.Udp ()) ]

let nf_opts = [ None; Some "nf1"; Some "nf3"; Some "absent" ]

module Dump (L : LEDGER) = struct
  let ints l = String.concat "," (List.map string_of_int l)
  let pairs l = String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d<%d" a b) l)
  let time = function None -> "-" | Some f -> Printf.sprintf "%h" f

  let dump (t : L.t) =
    List.concat_map
      (fun filter ->
        let f = match filter with None -> "any" | Some f -> Filter.to_string f in
        [
          Printf.sprintf "%s fwd %s" f (ints (L.forwarded_order ?filter t));
          Printf.sprintf "%s dup %s" f (ints (L.duplicated ?filter t));
          Printf.sprintf "%s ord %s" f (pairs (L.order_violations ?filter t));
          Printf.sprintf "%s arr %s" f (pairs (L.arrival_order_violations ?filter t));
          Printf.sprintf "%s lost12 %s" f (ints (L.lost ?filter t ~nfs:[ "nf1"; "nf2" ]));
          Printf.sprintf "%s lost3 %s" f (ints (L.lost ?filter t ~nfs:[ "nf3"; "absent" ]));
        ]
        @ List.map
            (fun nf ->
              Printf.sprintf "%s proc@%s %s" f
                (Option.value nf ~default:"*")
                (ints (L.processed_order ?filter ?nf t)))
            nf_opts)
      filters
    @ List.map
        (fun nf ->
          Printf.sprintf "%s: procs %d ev %s buf %s"
            (Option.value nf ~default:"*")
            (L.processed_count ?nf t)
            (ints (L.evented_ids ?nf t)) (ints (L.buffered_ids ?nf t)))
        nf_opts
    @ List.init max_pkt (fun pkt ->
          Printf.sprintf "pkt %d: lat %s proc %s" pkt
            (time (L.added_latency t ~pkt))
            (time (L.process_time t ~pkt)))
end

module Dump_audit = Dump (Audit)
module Dump_oracle = Dump (Oracle)

(* One random ledger operation: a time step (0 makes ties), which log
   call, packet id, key and instance. *)
type op = { dt : int; call : int; id : int; k : int; nf : int }

let op_gen =
  QCheck.Gen.(
    map
      (fun ((dt, call), (id, k, nf)) -> { dt; call; id; k; nf })
      (pair (pair (int_bound 2) (int_bound 6))
         (triple (int_bound (max_pkt - 1)) (int_bound (Array.length keys - 1))
            (int_bound (Array.length nfs - 1)))))

let ops_print ops =
  String.concat ";"
    (List.map (fun o -> Printf.sprintf "%d/%d/%d/%d/%d" o.dt o.call o.id o.k o.nf) ops)

let apply_op a o (p : Packet.t) =
  let nf = nfs.(o.nf) in
  match o.call with
  | 0 -> Audit.log_switch_arrival a p
  | 1 -> Audit.log_forward a p ~dst:nf
  | 2 -> Audit.log_nf_arrival a p ~nf
  | 3 -> Audit.log_process a p ~nf
  | 4 -> Audit.log_drop a p ~nf
  | 5 -> Audit.log_evented a p ~nf
  | _ -> Audit.log_buffered a p ~nf

let apply_oracle a o (p : Packet.t) =
  let nf = nfs.(o.nf) in
  match o.call with
  | 0 -> Oracle.log_switch_arrival a p
  | 1 -> Oracle.log_forward a p ~dst:nf
  | 2 -> Oracle.log_nf_arrival a p ~nf
  | 3 -> Oracle.log_process a p ~nf
  | 4 -> Oracle.log_drop a p ~nf
  | 5 -> Oracle.log_evented a p ~nf
  | _ -> Oracle.log_buffered a p ~nf

(* A subscriber collecting each typed row as (kind name, record), newest
   first. *)
let collect acc : Audit.subscriber =
 fun kind ~pkt ~nf ~src ~dst ~proto ~sport ~dport ~vt ->
  acc :=
    ( Opennf_obs.Monitor.kind_name kind,
      Oracle.record_of_row ~pkt ~nf ~src ~dst ~proto ~sport ~dport ~vt )
    :: !acc

(* Drive both ledgers with [ops] on one engine, at virtual times 0.25 ms
   apart per step. [traced] puts a tracing hub on the engine. *)
let run_both ?(traced = false) ops =
  let e =
    if traced then Engine.create ~obs:(Hub.create ~trace:true ()) () else Engine.create ()
  in
  let a = Audit.create e and o = Oracle.create e in
  let streamed = ref [] in
  Audit.subscribe a (collect streamed);
  ignore
    (List.fold_left
       (fun step op ->
         let step = step + op.dt in
         let p = pkt op.id keys.(op.k) in
         Engine.schedule_at e (0.00025 *. float_of_int step) (fun () ->
             apply_op a op p;
             apply_oracle o op p);
         step)
       0 ops);
  Engine.run e;
  (e, a, o, List.rev !streamed)

(* An audit instant as comparable data (wall stamps and ids excluded). *)
let inst (ev : Trace.ev) = (ev.Trace.name, ev.Trace.vt, ev.Trace.attrs)

let audit_instants tr =
  List.rev
    (Trace.fold tr
       (fun acc ev ->
         if ev.Trace.kind = Trace.Instant && ev.Trace.cat = "audit" then inst ev :: acc
         else acc)
       [])

let agree ~what got want =
  if got <> want then
    QCheck.Test.fail_reportf "%s differ:\nledger:  %s\noracle:  %s" what
      (String.concat " | " got) (String.concat " | " want);
  true

let ops_arb = QCheck.make ~print:ops_print QCheck.Gen.(list_size (int_range 0 60) op_gen)

(* The ledger agrees with the oracle on every query, and its live row
   stream, its replay and (when traced) its hub mirror all carry the
   oracle's records. *)
let agrees_with_oracle (traced, ops) =
  let e, a, o, streamed = run_both ~traced ops in
  let want = audit_instants (Oracle.trace o) in
  let records =
    List.rev
      (Trace.fold (Oracle.trace o)
         (fun acc ev -> (ev.Trace.name, Oracle.decode ev) :: acc)
         [])
  in
  ignore (agree ~what:"queries" (Dump_audit.dump a) (Dump_oracle.dump o));
  let replayed = ref [] and hub_events = ref 0 in
  Audit.replay a ~row:(collect replayed) ~hub:(fun _ -> incr hub_events);
  if List.rev !replayed <> records then QCheck.Test.fail_report "replayed rows differ";
  if !hub_events <> 0 then QCheck.Test.fail_report "replay passed a mirror instant on";
  if streamed <> records then QCheck.Test.fail_report "subscribed rows differ";
  if traced && audit_instants (Hub.trace (Engine.obs e)) <> want then
    QCheck.Test.fail_report "hub mirror differs";
  true

let prop_oracle =
  QCheck.Test.make ~name:"columnar ledger == trace-backed oracle (random)" ~count:300
    (QCheck.pair QCheck.bool ops_arb) agrees_with_oracle

(* A fixed run of 10,000 logging ops (no switch arrivals, which log once
   per id): its rows span three row chunks, and the traced run's mirror
   positions grow past their initial 1,024. *)
let long_ops =
  List.init 10_000 (fun i ->
      {
        dt = i mod 3;
        call = 1 + (i mod 6);
        id = i * 7 mod max_pkt;
        k = i mod Array.length keys;
        nf = i / 5 mod Array.length nfs;
      })

let test_oracle_long () =
  Alcotest.(check bool) "untraced" true (agrees_with_oracle (false, long_ops));
  Alcotest.(check bool) "traced" true (agrees_with_oracle (true, long_ops))

(* --- allocation budget ---------------------------------------------------- *)

(* Without taps or hub tracing a record is a few byte stores into the
   current row chunk; chunks are allocated on the major heap, never on
   the minor one. The budget leaves room for a boxed clock read, nothing
   per-record beyond it. *)
let test_log_alloc_budget () =
  let _, a = bed () in
  let p = pkt 1 key in
  let budget = 4.0 in
  let process = Helpers.minor_words_per ~iters:200_000 (fun () -> Audit.log_process a p ~nf:"nf1") in
  let forward = Helpers.minor_words_per ~iters:200_000 (fun () -> Audit.log_forward a p ~dst:"nf2") in
  Alcotest.(check bool)
    (Printf.sprintf "log_process %.2f words/record <= %.0f" process budget)
    true (process <= budget);
  Alcotest.(check bool)
    (Printf.sprintf "log_forward %.2f words/record <= %.0f" forward budget)
    true (forward <= budget)

(* Rows live in fixed-size [Bytes] chunks that are never copied, so a
   fresh ledger's major-heap allocation is its 40-byte rows (5 words)
   plus a little chunk bookkeeping. A layout that copies on growth pays
   about twice its rows. *)
let test_log_major_budget () =
  let _, a = bed () in
  let p = pkt 1 key in
  let records = 100_000 and budget = 6.0 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to records do
    Audit.log_process a p ~nf:"nf1"
  done;
  let per =
    ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int records
  in
  Alcotest.(check bool)
    (Printf.sprintf "log_process %.2f major words/record <= %.0f" per budget)
    true (per <= budget);
  Alcotest.(check int) "all recorded" records (Audit.processed_count a)

(* A monitored ledger, wired as [Fabric.create ~monitor:true] wires it:
   the monitor reads each row as typed fields, with no trace event,
   attribute array, flow string or history line built per row. A row of
   a known packet costs the boxed virtual time handed to the subscriber
   (2 words); a forward+process pair of a fresh packet adds its
   per-packet state and table entry (20 words). *)
let test_monitored_row_alloc_budget () =
  let e, a = bed () in
  let m = Opennf_obs.Monitor.create () in
  Audit.subscribe a (Opennf_obs.Monitor.row m);
  Trace.on_event (Hub.trace (Engine.obs e)) (Opennf_obs.Monitor.op_event m);
  let p = pkt 1 key in
  Array.iter (fun k -> Audit.log_forward a (pkt 0 k) ~dst:"nf1") keys;
  let known =
    Helpers.minor_words_per ~iters:100_000 (fun () -> Audit.log_nf_arrival a p ~nf:"nf1")
  in
  let iters = 100_000 in
  let fresh =
    Array.init (iters + 1) (fun i -> pkt (max_pkt + i) keys.(i mod Array.length keys))
  in
  let next = ref 0 in
  let pair =
    Helpers.minor_words_per ~iters (fun () ->
        let p = fresh.(!next) in
        incr next;
        Audit.log_forward a p ~dst:"nf1";
        Audit.log_process a p ~nf:"nf2")
  in
  let known_budget = 3.0 and pair_budget = 24.0 in
  Alcotest.(check bool)
    (Printf.sprintf "known-packet row %.2f words <= %.0f" known known_budget)
    true (known <= known_budget);
  Alcotest.(check bool)
    (Printf.sprintf "fresh forward+process %.2f words <= %.0f" pair pair_budget)
    true (pair <= pair_budget);
  (* The monitor did track the fresh packets: processing one again is a
     duplicate. *)
  Audit.log_process a fresh.(0) ~nf:"nf1";
  Alcotest.(check int) "one online finding" 1
    (List.length (Opennf_obs.Monitor.findings m))

let suite =
  [
    Alcotest.test_case "forwarded order dedupes relays" `Quick
      test_forwarded_order_dedupes;
    Alcotest.test_case "lost/processed accounting" `Quick test_lost_and_processed;
    Alcotest.test_case "duplicate detection" `Quick test_duplicated;
    Alcotest.test_case "order violation detection" `Quick
      test_order_violations_detects_inversion;
    Alcotest.test_case "ordered runs are silent" `Quick
      test_order_violations_in_order_silent;
    Alcotest.test_case "per-flow filtering" `Quick test_order_violations_filtered;
    Alcotest.test_case "arrival vs forwarding order" `Quick
      test_arrival_vs_forward_order;
    Alcotest.test_case "added latency" `Quick test_added_latency;
    Alcotest.test_case "evented/buffered queries" `Quick
      test_evented_and_buffered_ids;
    Alcotest.test_case "log allocation budget" `Quick test_log_alloc_budget;
    Alcotest.test_case "log major-heap budget" `Quick test_log_major_budget;
    QCheck_alcotest.to_alcotest prop_oracle;
    Alcotest.test_case "ledger == oracle across row chunks" `Quick
      test_oracle_long;
    Alcotest.test_case "alloc budget: monitored audit row" `Quick
      test_monitored_row_alloc_budget;
  ]
