(* Ordered-store equivalence: every store's [matching] (hash probes,
   or fold-and-sort of the matches on query) must be observationally
   identical — same keys, same order, same values — to the full-scan
   fold-and-sort oracles ({!Oracle.Store}), under arbitrary
   insert/remove/get interleavings, and the boxed and arena per-flow
   stores must enumerate the same keys in the same order. Plus
   allocation-budget regressions: an exact-key get, the getPerflow fast
   path and both per-flow stores' writes must not churn the minor heap,
   and a budget test keeps that true. *)

open Opennf_net
open Opennf_state

(* --- generators: a small universe so churn collides often ------------- *)

let ip a b = Ipaddr.v 10 0 (a land 3) (b land 7)

let key a b =
  Flow.make ~src:(ip a b) ~dst:(ip b a)
    ~proto:(if a land 1 = 0 then Flow.Tcp else Flow.Udp)
    ~sport:(1000 + (a land 3))
    ~dport:(1000 + (b land 3))
    ()

let filter_of c a b =
  match c mod 8 with
  | 0 -> Filter.any
  | 1 -> Filter.of_src_host (ip a b)
  | 2 -> Filter.of_dst_host (ip a b)
  | 3 -> Filter.of_src_prefix (Ipaddr.Prefix.make (ip a b) 24)
  | 4 -> Filter.make ~src:(Ipaddr.Prefix.host (ip a b)) ~dst:(Ipaddr.Prefix.host (ip b a)) ()
  | 5 -> Filter.make ~src:(Ipaddr.Prefix.host (ip a b)) ~dst_port:(1000 + (b land 3)) ()
  | 6 -> Filter.make ~proto:(if a land 1 = 0 then Flow.Tcp else Flow.Udp) ()
  | _ -> Filter.of_key (key a b)

let ops_arb =
  QCheck.(list_of_size (Gen.int_range 1 120) (triple small_nat small_nat small_nat))

let show_pairs pp l =
  String.concat ";" (List.map (fun (k, v) -> Format.asprintf "%a=%d" pp k v) l)

(* --- store equivalence under churn ------------------------------------ *)

let perflow_equiv =
  QCheck.Test.make ~name:"perflow: ordered matching == sorted reference (random)"
    ~count:60 ops_arb (fun ops ->
      let store = Store.Perflow.create () in
      List.for_all
        (fun (c, a, b) ->
          match c mod 5 with
          | 0 | 1 ->
            Store.Perflow.set store (key a b) c;
            true
          | 2 ->
            Store.Perflow.remove store (key a b);
            true
          | _ ->
            let f = filter_of c a b in
            let got = Store.Perflow.matching store f in
            let want = Oracle.Store.perflow_matching store f in
            if got <> want then
              QCheck.Test.fail_reportf "filter %s: got [%s] want [%s]"
                (Filter.to_string f) (show_pairs Flow.pp got)
                (show_pairs Flow.pp want)
            else true)
        ops)

let per_host_equiv =
  QCheck.Test.make ~name:"per-host: ordered matching == sorted reference (random)"
    ~count:60 ops_arb (fun ops ->
      let store = Store.Per_host.create () in
      List.for_all
        (fun (c, a, b) ->
          match c mod 5 with
          | 0 | 1 ->
            Store.Per_host.set store (ip a b) c;
            true
          | 2 ->
            Store.Per_host.remove store (ip a b);
            true
          | 3 ->
            Store.Per_host.update store (ip a b)
              ~default:(fun () -> 0)
              ~f:(fun v -> v + 1);
            true
          | _ ->
            let f = filter_of c a b in
            let got = Store.Per_host.matching store f in
            let want = Oracle.Store.per_host_matching store f in
            if got <> want then
              QCheck.Test.fail_reportf "filter %s: got [%s] want [%s]"
                (Filter.to_string f) (show_pairs Ipaddr.pp got)
                (show_pairs Ipaddr.pp want)
            else true)
        ops)

let keyed_equiv =
  QCheck.Test.make ~name:"keyed: ordered matching == sorted reference (random)"
    ~count:60 ops_arb (fun ops ->
      let relevant (f : Filter.t) k _v =
        match f.Filter.src_port with
        | Some p -> k mod 3 = p mod 3
        | None -> true
      in
      let store = Store.Keyed.create ~relevant () in
      List.for_all
        (fun (c, a, b) ->
          match c mod 4 with
          | 0 | 1 ->
            Store.Keyed.set store (a land 15) (b + c);
            true
          | 2 ->
            Store.Keyed.remove store (a land 15);
            true
          | _ ->
            let f =
              if c land 1 = 0 then Filter.any
              else Filter.make ~src_port:(1000 + (a land 3)) ()
            in
            Store.Keyed.matching store f
            = Oracle.Store.keyed_matching store ~relevant f)
        ops)

(* --- boxed vs arena ------------------------------------------------------ *)

(* The boxed and the arena per-flow store are two layouts of one
   contract: for any filter, [matching] lists the same canonical keys in
   the same order. The keys include a connection whose two endpoints
   share a /24 (a prefix filter over it must list it once) and flows
   shaped like a sharded move's (clients in a /16 to one server), half
   of them inserted in reply direction. *)
let test_boxed_arena_agree () =
  let inner =
    Flow.make ~src:(Ipaddr.v 10 0 0 5) ~dst:(Ipaddr.v 10 0 0 6) ~sport:4000
      ~dport:4001 ()
  in
  let shard j =
    let k =
      Flow.make
        ~src:(Ipaddr.of_int (Ipaddr.to_int (Ipaddr.v 10 160 0 0) + (j mod 250) + 1))
        ~dst:(Ipaddr.v 172 31 0 1) ~sport:(20000 + j) ~dport:443 ()
    in
    if j land 1 = 0 then k else Flow.reverse k
  in
  let keys =
    (inner :: List.init 300 shard)
    @ List.concat (List.init 8 (fun a -> List.init 8 (fun b -> key a b)))
  in
  let boxed = Store.Perflow.create () in
  let arena = Store.Perflow_arena.create ~payload:8 () in
  List.iteri
    (fun i k ->
      Store.Perflow.set boxed k i;
      ignore (Store.Perflow_arena.insert arena k))
    keys;
  let p a b c d bits = Ipaddr.Prefix.make (Ipaddr.v a b c d) bits in
  let shaped =
    [
      Filter.make ~src:(p 10 0 0 0 24) ();
      Filter.make ~dst:(p 10 0 0 0 24) ();
      Filter.make ~src:(p 10 0 0 0 24) ~dst:(p 10 0 0 0 24) ();
      Filter.make ~src:(p 10 160 0 0 16) ~dst:(p 172 31 0 0 16) ();
      Filter.make ~src:(p 172 31 0 0 16) ~dst:(p 10 160 0 0 16) ();
      Filter.make ~src:(p 10 160 0 0 16) ~dst:(p 172 31 0 0 16) ~dst_port:443 ();
      Filter.of_src_host (Ipaddr.v 172 31 0 1);
      Filter.of_key inner;
      Filter.of_key (Flow.reverse inner);
      Filter.of_key (shard 7);
      Filter.make ~src:(p 10 0 0 0 8) ~dst:(p 10 0 0 0 8) ();
    ]
  in
  let generated =
    List.concat
      (List.init 8 (fun c ->
           List.concat (List.init 4 (fun a -> List.init 8 (filter_of c a)))))
  in
  List.iter
    (fun f ->
      Alcotest.(check (list string))
        (Filter.to_string f)
        (List.map (fun (k, _) -> Flow.to_string k)
           (Store.Perflow_arena.matching arena f))
        (List.map (fun (k, _) -> Flow.to_string k)
           (Store.Perflow.matching boxed f)))
    (shaped @ generated @ [ Filter.any ]);
  Alcotest.(check int) "both endpoints in the prefix: listed once" 1
    (List.length
       (List.filter
          (fun (k, _) -> Flow.equal k (Flow.canonical inner))
          (Store.Perflow.matching boxed (Filter.make ~src:(p 10 0 0 0 24) ()))));
  Alcotest.(check int) "/16 src + /16 dst: every shard flow" 300
    (List.length
       (Store.Perflow.matching boxed
          (Filter.make ~src:(p 10 160 0 0 16) ~dst:(p 172 31 0 0 16) ())))

(* --- allocation budgets ------------------------------------------------ *)

let populate_prads n =
  let prads = Opennf_nfs.Prads.create () in
  let impl = Opennf_nfs.Prads.impl prads in
  for i = 0 to n - 1 do
    let k =
      Flow.make
        ~src:(Ipaddr.of_int (0x0A000000 lor (i lsr 6)))
        ~dst:(Ipaddr.of_int 0xC0A80101)
        ~sport:(1024 + (i land 63))
        ~dport:80 ()
    in
    impl.Opennf_sb.Nf_api.process_packet (Packet.create ~id:i ~key:k ~sent_at:0.0 ())
  done;
  impl

(* The raw scoped probe must stay O(1) allocations — a handful of words
   for the canonical key and the result cell, nothing proportional to
   the store. *)
let test_matching_alloc_budget () =
  let store = Store.Perflow.create () in
  for i = 0 to 9_999 do
    Store.Perflow.set store (key (i land 255) (i lsr 8)) i
  done;
  let f = Filter.of_key (key 7 42) in
  let per_op =
    Helpers.minor_words_per ~iters:1000 (fun () ->
        ignore (Store.Perflow.matching store f))
  in
  Alcotest.(check bool)
    (Printf.sprintf "exact matching stays under 128 minor words/op (got %.1f)"
       per_op)
    true (per_op < 128.0)

(* NF-level getPerflow (list + chunk export) on a 10k-flow PRADS: scoped
   enumeration plus one scratch-buffer encode. The budget has ~3x
   headroom over the measured cost but is far below what a single sort
   of the store (~10k list cells) would spend. *)
let test_get_perflow_alloc_budget () =
  let impl = populate_prads 10_000 in
  let f =
    Filter.of_key
      (Flow.make
         ~src:(Ipaddr.of_int (0x0A000000 lor (5_000 lsr 6)))
         ~dst:(Ipaddr.of_int 0xC0A80101)
         ~sport:(1024 + (5_000 land 63))
         ~dport:80 ())
  in
  let per_op =
    Helpers.minor_words_per ~iters:500 (fun () ->
        List.iter
          (fun flowid -> ignore (impl.Opennf_sb.Nf_api.export_perflow flowid))
          (impl.Opennf_sb.Nf_api.list_perflow f))
  in
  Alcotest.(check bool)
    (Printf.sprintf "getPerflow stays under 2048 minor words/op (got %.1f)"
       per_op)
    true (per_op < 2048.0)

(* The boxed store holds each entry once in its hash table: a fresh-key
   [set] costs one bucket cell plus, for a reply-direction key, the
   canonical record; a [remove] only that record. Half the keys arrive
   in reply direction, as in the arena test below. *)
let test_perflow_set_remove_alloc_budget () =
  let n = 100_000 in
  let keys =
    Array.init (n + 1) (fun i ->
        let k =
          Flow.make
            ~src:(Ipaddr.of_int (0x0A000000 lor i))
            ~dst:(Ipaddr.v 192 168 1 1)
            ~proto:(if i land 4 = 0 then Flow.Tcp else Flow.Udp)
            ~sport:(1024 + (i land 1023))
            ~dport:443 ()
        in
        if i land 1 = 0 then k else Flow.reverse k)
  in
  let store = Store.Perflow.create () in
  let each f =
    let i = ref 0 in
    fun () ->
      f keys.(!i);
      incr i
  in
  let set = Helpers.minor_words_per ~iters:n (each (fun k -> Store.Perflow.set store k ())) in
  Alcotest.(check int) "all set" (n + 1) (Store.Perflow.size store);
  let rem = Helpers.minor_words_per ~iters:n (each (Store.Perflow.remove store)) in
  Alcotest.(check int) "all removed" 0 (Store.Perflow.size store);
  Alcotest.(check bool)
    (Printf.sprintf "fresh-key set stays under 16 minor words/op (got %.1f)" set)
    true (set <= 16.0);
  Alcotest.(check bool)
    (Printf.sprintf "remove stays under 8 minor words/op (got %.1f)" rem)
    true (rem <= 8.0)

(* The arena store's insert and remove touch only the open-addressing
   index and the row: no per-row node on the OCaml heap. Half the keys
   arrive in reply direction, so canonicalization is on the path too
   (its reversed record is the only allocation left). Index growth and
   new slabs are large blocks that go straight to the major heap. *)
let test_arena_insert_remove_alloc_budget () =
  let n = 100_000 in
  let keys =
    Array.init n (fun i ->
        let k =
          Flow.make
            ~src:(Ipaddr.of_int (0x0A000000 lor i))
            ~dst:(Ipaddr.of_int 0xC0A80101)
            ~proto:(if i land 4 = 0 then Flow.Tcp else Flow.Udp)
            ~sport:(1024 + (i land 1023))
            ~dport:443 ()
        in
        if i land 1 = 0 then k else Flow.reverse k)
  in
  let store = Store.Perflow_arena.create ~payload:32 () in
  let per_op f =
    let before = Gc.minor_words () in
    Array.iter f keys;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let ins = per_op (fun k -> ignore (Store.Perflow_arena.insert store k)) in
  Alcotest.(check int) "all inserted" n (Store.Perflow_arena.size store);
  let rem = per_op (fun k -> ignore (Store.Perflow_arena.remove store k)) in
  Alcotest.(check int) "all removed" 0 (Store.Perflow_arena.size store);
  Alcotest.(check bool)
    (Printf.sprintf "insert stays under 16 minor words/op (got %.1f)" ins)
    true (ins <= 16.0);
  Alcotest.(check bool)
    (Printf.sprintf "remove stays under 16 minor words/op (got %.1f)" rem)
    true (rem <= 16.0)

(* A point lookup canonicalizes field by field: a reply-direction key
   swaps its endpoints in place instead of building the reversed
   record, so [find] allocates nothing in either direction. *)
let test_arena_find_alloc_budget () =
  let n = 100_000 in
  let keys =
    Array.init n (fun i ->
        let k =
          Flow.make
            ~src:(Ipaddr.of_int (0x0A000000 lor i))
            ~dst:(Ipaddr.of_int 0xC0A80101)
            ~proto:(if i land 4 = 0 then Flow.Tcp else Flow.Udp)
            ~sport:(1024 + (i land 1023))
            ~dport:443 ()
        in
        if i land 1 = 0 then k else Flow.reverse k)
  in
  let store = Store.Perflow_arena.create ~payload:32 () in
  Array.iteri
    (fun i k -> if i land 3 <> 3 then ignore (Store.Perflow_arena.insert store k))
    keys;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  Array.iter
    (fun k -> if Store.Perflow_arena.find store k <> Opennf_util.Arena.null then incr hits)
    keys;
  let per_op = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "present keys found, absent ones not" (n - (n / 4)) !hits;
  Alcotest.(check bool)
    (Printf.sprintf "find allocates 0 minor words/op (got %.3f)" per_op)
    true (per_op < 0.01)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ perflow_equiv; per_host_equiv; keyed_equiv ]
  @ [
      Alcotest.test_case "alloc budget: exact store matching" `Quick
        test_matching_alloc_budget;
      Alcotest.test_case "alloc budget: NF getPerflow path" `Quick
        test_get_perflow_alloc_budget;
      Alcotest.test_case "alloc budget: arena insert/remove" `Quick
        test_arena_insert_remove_alloc_budget;
      Alcotest.test_case "perflow: boxed and arena stores agree" `Quick
        test_boxed_arena_agree;
      Alcotest.test_case "alloc budget: boxed set/remove" `Quick
        test_perflow_set_remove_alloc_budget;
      Alcotest.test_case "alloc budget: arena find" `Quick
        test_arena_find_alloc_budget;
    ]
