(* Randomized equivalence of the indexed data path against linear-scan
   oracles (ISSUE 1): under install/remove/query churn,
   [Flowtable.lookup] (exact hash + priority buckets)
   must always agree with [Oracle.Flowtable.lookup], and
   [Store.Perflow.matching] (exact-key probe, else fold and sort the
   matches) with [Oracle.Store.perflow_matching]. *)

module Rng = Opennf_util.Rng
open Opennf_net
open Opennf_state

(* A deliberately small universe so installs, removes and queries
   collide often. *)
let host rng = Ipaddr.v 10 0 (Rng.int rng 4) (Rng.int rng 8)
let port rng = 1000 + Rng.int rng 4
let protos = [| Flow.Tcp; Flow.Udp |]

let key rng =
  Flow.make ~src:(host rng) ~dst:(host rng)
    ~proto:(Rng.pick rng protos) ~sport:(port rng) ~dport:(port rng) ()

let packet rng ~id =
  let flags = if Rng.int rng 4 = 0 then [ Packet.Syn ] else [] in
  Packet.create ~id ~key:(key rng) ~flags ~sent_at:0.0 ()

let cookie_of = Option.map (fun r -> r.Flowtable.cookie)

let check_lookup table p =
  Alcotest.(check (option int))
    "indexed lookup agrees with linear reference"
    (cookie_of (Oracle.Flowtable.lookup table p))
    (cookie_of (Flowtable.lookup table p))

let random_filter rng =
  match Rng.int rng 8 with
  | 0 -> Filter.any
  | 1 -> Filter.of_src_host (host rng)
  | 2 -> Filter.of_dst_host (host rng)
  | 3 -> Filter.of_src_prefix (Ipaddr.Prefix.make (host rng) 24)
  | 4 -> Filter.of_src_prefix (Ipaddr.Prefix.make (host rng) 16)
  | 5 -> Filter.make ~src:(Ipaddr.Prefix.host (host rng)) ~dst_port:(port rng) ()
  | 6 -> Filter.make ~proto:(Rng.pick rng protos) ()  (* no address: fallback *)
  | _ -> Filter.of_key (key rng)

let test_flowtable_churn () =
  let rng = Rng.create ~seed:42 in
  let table = Flowtable.create () in
  for i = 1 to 4000 do
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      (* Exact-match rule on a full 5-tuple (the common shape). *)
      let f = Filter.of_key (key rng) in
      Flowtable.install table ~cookie:(Rng.int rng 150)
        ~priority:(100 + (50 * Rng.int rng 4))
        ~filters:[ f; Filter.mirror f ]
        ~actions:[ Flowtable.Forward "nf" ]
    | 4 ->
      (* Wildcard rule: prefix or catch-all. *)
      let f =
        if Rng.bool rng then
          Filter.of_src_prefix (Ipaddr.Prefix.make (host rng) (8 * Rng.int rng 4))
        else Filter.any
      in
      Flowtable.install table ~cookie:(Rng.int rng 150)
        ~priority:(100 + (50 * Rng.int rng 4))
        ~filters:[ f ]
        ~actions:[ Flowtable.Forward "wild" ]
    | 5 ->
      (* Flag-constrained rule: two packets of one flow can match
         different rules. *)
      let f = Filter.make ~src:(Ipaddr.Prefix.host (host rng)) ~tcp_flag:Syn () in
      Flowtable.install table ~cookie:(Rng.int rng 150)
        ~priority:(100 + (50 * Rng.int rng 4))
        ~filters:[ f ]
        ~actions:[ Flowtable.To_controller ]
    | 6 -> Flowtable.remove table ~cookie:(Rng.int rng 150)
    | _ ->
      let p = packet rng ~id:i in
      check_lookup table p;
      (* Immediate repeat: the same flow looked up twice in a row. *)
      check_lookup table p);
    ()
  done

let test_flowtable_cache_invalidation () =
  let rng = Rng.create ~seed:7 in
  let table = Flowtable.create () in
  let k = key rng in
  let p = Packet.create ~id:1 ~key:k ~sent_at:0.0 () in
  let f = Filter.of_key k in
  Flowtable.install table ~cookie:1 ~priority:100
    ~filters:[ f; Filter.mirror f ]
    ~actions:[ Flowtable.Forward "a" ];
  check_lookup table p;
  check_lookup table p;
  (* A higher-priority install must supersede the earlier winner. *)
  Flowtable.install table ~cookie:2 ~priority:200
    ~filters:[ f; Filter.mirror f ]
    ~actions:[ Flowtable.Forward "b" ];
  Alcotest.(check (option int)) "new rule wins after install" (Some 2)
    (cookie_of (Flowtable.lookup table p));
  Flowtable.remove table ~cookie:2;
  Alcotest.(check (option int)) "removal restores old rule" (Some 1)
    (cookie_of (Flowtable.lookup table p));
  Flowtable.remove table ~cookie:1;
  Alcotest.(check (option int)) "empty table misses" None
    (cookie_of (Flowtable.lookup table p))

let pairs = Alcotest.(list (pair (testable Flow.pp Flow.equal) int))

let test_perflow_churn () =
  let rng = Rng.create ~seed:1337 in
  let store = Store.Perflow.create () in
  for i = 1 to 4000 do
    match Rng.int rng 5 with
    | 0 | 1 -> Store.Perflow.set store (key rng) i
    | 2 -> Store.Perflow.remove store (key rng)
    | _ ->
      let f = random_filter rng in
      Alcotest.check pairs
        ("indexed matching agrees with reference for " ^ Filter.to_string f)
        (Oracle.Store.perflow_matching store f)
        (Store.Perflow.matching store f)
  done

(* The arena store's tagged open-addressing index against the boxed
   store as reference (canonical key -> the handle the first insert
   returned). The small universe makes home slots collide constantly;
   the insert-heavy phase crosses the index's growth rehashes (64 to
   16,384 slots), and the balanced and remove-heavy phases pile up
   tombstones until same-size purge rehashes clear them. *)
let test_perflow_arena_churn () =
  let module Pfa = Store.Perflow_arena in
  let null = Opennf_util.Arena.null in
  let rng = Rng.create ~seed:2718 in
  let store = Pfa.create ~payload:8 () and peak = ref 0 in
  let reference = Store.Perflow.create () in
  let check_find k =
    Alcotest.(check int)
      ("find " ^ Flow.to_string k ^ ": the first insert's handle, or null")
      (Option.value (Store.Perflow.find reference k) ~default:null)
      (Pfa.find store k)
  in
  let step ~inserts ~removes =
    let k = key rng in
    let r = Rng.int rng 100 in
    if r < inserts then begin
      let h = Pfa.insert store k in
      match Store.Perflow.find reference k with
      | Some first -> Alcotest.(check int) "insert of a present key" first h
      | None -> Store.Perflow.set reference k h
    end
    else if r < inserts + removes then begin
      Alcotest.(check bool) "remove reports presence"
        (Store.Perflow.mem reference k) (Pfa.remove store k);
      Store.Perflow.remove reference k;
      Alcotest.(check int) "removed key is absent" null (Pfa.find store k)
    end;
    check_find k;
    Alcotest.(check int) "size" (Store.Perflow.size reference) (Pfa.size store);
    peak := max !peak (Pfa.size store)
  in
  let phase n ~inserts ~removes =
    for i = 1 to n do
      step ~inserts ~removes;
      if i mod 500 = 0 then
        Alcotest.check pairs "matching Filter.any"
          (Store.Perflow.matching reference Filter.any)
          (Pfa.matching store Filter.any)
    done
  in
  phase 6000 ~inserts:80 ~removes:10;
  phase 20000 ~inserts:45 ~removes:45;
  phase 8000 ~inserts:15 ~removes:75;
  (* Over 4,096 live keys: the index doubled from 64 to 16,384 slots. *)
  Alcotest.(check bool)
    (Printf.sprintf "peak size %d > 4096" !peak)
    true (!peak > 4096);
  Alcotest.check pairs "final matching Filter.any"
    (Store.Perflow.matching reference Filter.any)
    (Pfa.matching store Filter.any)

(* --- key rows -------------------------------------------------------------

   Both arena indexes compare a key as two 64-bit words. Word 0 holds
   [src] in its low half and [dst] in its high half, so bit 31 of [dst]
   is bit 63 of the word: a compare truncated to a 63-bit int would
   merge keys that differ only there. *)

(* Pairs that differ only in bit 31 of [dst], and pairs that differ
   only in bit 31 of [src] (its top bit), both in canonical order. *)
let top_bit_pairs n =
  List.concat
    (List.init n (fun i ->
         let lo = 0x0A000000 lor (i lsl 4) in
         let mk src dst =
           Flow.make ~src:(Ipaddr.of_int src) ~dst:(Ipaddr.of_int dst)
             ~sport:(1024 + (i land 255)) ~dport:443 ()
         in
         [
           (mk 7 lo, mk 7 (lo lor 0x80000000));
           (mk lo 0xFFFFFFF0, mk (lo lor 0x80000000) 0xFFFFFFF0);
         ]))

let test_key_rows_top_bits_distinct () =
  let module Pfa = Store.Perflow_arena in
  let null = Opennf_util.Arena.null in
  let pairs_ = top_bit_pairs 2000 in
  let store = Pfa.create ~payload:8 () in
  List.iter
    (fun (a, b) ->
      let ha = Pfa.insert store a in
      let hb = Pfa.insert store b in
      if ha = hb then
        Alcotest.failf "%s and %s share a row" (Flow.to_string a)
          (Flow.to_string b);
      Alcotest.(check int) "find a" ha (Pfa.find store a);
      Alcotest.(check int) "find b" hb (Pfa.find store b);
      Alcotest.check pairs "exact matching of b"
        [ (b, hb) ]
        (Pfa.matching store (Filter.of_key b)))
    pairs_;
  Alcotest.(check int) "every key has its own row" (2 * List.length pairs_)
    (Pfa.size store);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "remove b" true (Pfa.remove store b);
      Alcotest.(check int) "b gone" null (Pfa.find store b);
      if Pfa.find store a = null then
        Alcotest.failf "removing %s removed %s" (Flow.to_string b)
          (Flow.to_string a))
    pairs_;
  Alcotest.(check int) "one of each pair left" (List.length pairs_)
    (Pfa.size store);
  (* The hash already separates such pairs (their hashes differ in bit
     31, which lands in both the store's tag and the home slot), so the
     probes above may never compare one key's row against the other's.
     The compare itself must tell them apart too. *)
  let row = Bytes.make 16 '\000' in
  let fields k =
    ( Ipaddr.to_int k.Flow.src_ip,
      Ipaddr.to_int k.Flow.dst_ip,
      Key_row.word1 (Key_row.rank k.Flow.proto) k.Flow.src_port
        k.Flow.dst_port )
  in
  List.iter
    (fun (a, b) ->
      let sa, da, wa = fields a and sb, db, wb = fields b in
      Key_row.write row 0 sa da wa;
      Alcotest.(check bool) "row of a holds a" true
        (Key_row.matches row 0 sa da wa);
      Alcotest.(check bool) "row of a does not hold b" false
        (Key_row.matches row 0 sb db wb);
      Key_row.write row 0 sb db wb;
      Alcotest.(check bool) "row of b does not hold a" false
        (Key_row.matches row 0 sa da wa))
    pairs_;
  let table = Flowtable.create () in
  List.iteri
    (fun i (a, b) ->
      Flowtable.install table ~cookie:(2 * i) ~priority:1
        ~filters:[ Filter.of_key a ] ~actions:[ Flowtable.Forward "a" ];
      Flowtable.install table ~cookie:((2 * i) + 1) ~priority:1
        ~filters:[ Filter.of_key b ] ~actions:[ Flowtable.Forward "b" ])
    pairs_;
  List.iteri
    (fun i (a, b) ->
      let look k =
        cookie_of
          (Flowtable.lookup table (Packet.create ~id:i ~key:k ~sent_at:0.0 ()))
      in
      Alcotest.(check (option int)) "rule of a" (Some (2 * i)) (look a);
      Alcotest.(check (option int)) "rule of b" (Some ((2 * i) + 1)) (look b))
    pairs_

(* Extreme field values survive the row: all-ones and all-zero
   addresses, ICMP (the highest protocol rank), ports 0 and 65535. *)
let test_key_rows_extremes () =
  let module Pfa = Store.Perflow_arena in
  let keys =
    [
      Flow.make ~src:(Ipaddr.v 255 255 255 255) ~dst:(Ipaddr.v 0 0 0 0)
        ~proto:Flow.Icmp ~sport:65535 ~dport:0 ();
      Flow.make ~src:(Ipaddr.v 0 0 0 0) ~dst:(Ipaddr.v 255 255 255 255)
        ~proto:Flow.Udp ~sport:0 ~dport:65535 ();
      Flow.make ~src:(Ipaddr.v 255 255 255 255) ~dst:(Ipaddr.v 255 255 255 255)
        ~proto:Flow.Icmp ~sport:65535 ~dport:65535 ();
      Flow.make ~src:(Ipaddr.v 0 0 0 0) ~dst:(Ipaddr.v 0 0 0 0) ~proto:Flow.Tcp
        ~sport:0 ~dport:0 ();
    ]
  in
  let store = Pfa.create ~payload:0 () in
  let table = Flowtable.create () in
  List.iteri
    (fun i k ->
      let h = Pfa.insert store k in
      Alcotest.(check string) "key_of returns the canonical key"
        (Flow.to_string (Flow.canonical k))
        (Flow.to_string (Pfa.key_of store h));
      Alcotest.(check int) "find" h (Pfa.find store k);
      Alcotest.(check int) "find the reply direction" h
        (Pfa.find store (Flow.reverse k));
      Flowtable.install table ~cookie:i ~priority:1 ~filters:[ Filter.of_key k ]
        ~actions:[ Flowtable.Forward "nf" ])
    keys;
  Alcotest.(check int) "distinct rows" (List.length keys) (Pfa.size store);
  Alcotest.check pairs "matching Filter.any"
    (List.sort (fun (a, _) (b, _) -> Flow.compare a b)
       (List.map (fun k -> (Flow.canonical k, Pfa.find store k)) keys))
    (Pfa.matching store Filter.any);
  List.iteri
    (fun i k ->
      Alcotest.(check (option int)) ("flow table: " ^ Flow.to_string k) (Some i)
        (cookie_of
           (Flowtable.lookup table (Packet.create ~id:i ~key:k ~sent_at:0.0 ()))))
    keys

(* A flag-constrained exact rule keeps a marker in byte 13 of its row,
   just past the key: the key compare must mask it off. *)
let test_flowtable_flag_row_matches () =
  let k =
    Flow.make ~src:(Ipaddr.v 10 0 0 1) ~dst:(Ipaddr.v 192 168 9 9) ~sport:4242
      ~dport:80 ()
  in
  let table = Flowtable.create () in
  Flowtable.install table ~cookie:5 ~priority:10
    ~filters:
      [
        Filter.make ~src:(Ipaddr.Prefix.host k.Flow.src_ip)
          ~dst:(Ipaddr.Prefix.host k.Flow.dst_ip) ~proto:Flow.Tcp
          ~src_port:k.Flow.src_port ~dst_port:k.Flow.dst_port
          ~tcp_flag:Packet.Syn ();
      ]
    ~actions:[ Flowtable.Forward "nf" ];
  let look flags =
    cookie_of
      (Flowtable.lookup table (Packet.create ~id:1 ~key:k ~flags ~sent_at:0.0 ()))
  in
  Alcotest.(check (option int)) "SYN packet matches the flagged rule" (Some 5)
    (look [ Packet.Syn ]);
  Alcotest.(check (option int)) "non-SYN packet does not" None (look [])

let suite =
  [
    Alcotest.test_case "flowtable: randomized churn equivalence" `Quick
      test_flowtable_churn;
    Alcotest.test_case "flowtable: cache invalidation on install/remove" `Quick
      test_flowtable_cache_invalidation;
    Alcotest.test_case "perflow store: randomized churn equivalence" `Quick
      test_perflow_churn;
    Alcotest.test_case "perflow arena: randomized churn equivalence" `Quick
      test_perflow_arena_churn;
    Alcotest.test_case "key rows: top address bits keep keys distinct" `Quick
      test_key_rows_top_bits_distinct;
    Alcotest.test_case "key rows: extreme fields round-trip" `Quick
      test_key_rows_extremes;
    Alcotest.test_case "flowtable: flag-marked exact row matches its key" `Quick
      test_flowtable_flag_row_matches;
  ]
