(* Flat-memory arenas and the timing wheel (ISSUE 6).

   Three equivalence obligations, one regression:

   - the slab arena's typed accessors must roundtrip every field width
     (including negative full-width ints), zero fresh rows, and reject
     stale handles — both after a plain free and after the freed row is
     reused off the free list (the generation-stamp guarantee);
   - an arena-backed per-flow store must be observationally identical
     to a boxed reference model under random churn
     (insert/mutate/delete/match), and its sort-on-query enumeration
     must return the model's key order over the whole key space;
   - the timing-wheel scheduler must dispatch in exactly the (time, seq)
     order of the oracle binary heap ({!Oracle.Heap_engine}) on random
     schedules, including ties, zero delays, nested scheduling and
     far-future timers;
   - NAT port allocation must wrap within its configured range and
     recycle ports of Closed entries instead of marching past 65535. *)

module Arena = Opennf_util.Arena
module Pfa = Opennf_state.Store.Perflow_arena
module Engine = Opennf_sim.Engine
open Opennf_net

(* --- arena unit tests -------------------------------------------------- *)

(* In-place f64 fields through the row locator, as the NFs write them. *)
let set_f64 a h off v =
  let i = Arena.index a h in
  Bytes.set_int64_le (Arena.slab a i) (Arena.offset a i + off)
    (Int64.bits_of_float v)

let get_f64 a h off =
  let i = Arena.index a h in
  Int64.float_of_bits
    (Bytes.get_int64_le (Arena.slab a i) (Arena.offset a i + off))

let test_arena_roundtrip () =
  let a = Arena.create ~stride:40 () in
  let h = Arena.alloc a in
  let i = Arena.index a h in
  Arena.set_u8 a h 0 0xAB;
  Arena.set_u16 a h 1 0xBEEF;
  Bytes.set_int32_le (Arena.slab a i) (Arena.offset a i + 3) 0xDEADBEEFl;
  Arena.set_int a h 8 (-123456789);
  Arena.set_int a h 16 max_int;
  Arena.set_int a h 24 min_int;
  set_f64 a h 32 (-3.5e-9);
  Alcotest.(check int) "u8" 0xAB (Arena.get_u8 a h 0);
  Alcotest.(check int) "u16" 0xBEEF (Arena.get_u16 a h 1);
  Alcotest.(check int) "u32 written in place" 0xDEADBEEF (Arena.get_u32 a h 3);
  Alcotest.(check int) "negative int" (-123456789) (Arena.get_int a h 8);
  Alcotest.(check int) "max_int" max_int (Arena.get_int a h 16);
  Alcotest.(check int) "min_int" min_int (Arena.get_int a h 24);
  Alcotest.(check int) "int as Int64.of_int" (-123456789)
    (Int64.to_int (Bytes.get_int64_le (Arena.slab a i) (Arena.offset a i + 8)));
  Alcotest.(check (float 0.0)) "f64 exact" (-3.5e-9) (get_f64 a h 32)

let test_arena_zeroed_on_reuse () =
  let a = Arena.create ~stride:16 () in
  let h1 = Arena.alloc a in
  Arena.set_int a h1 0 0x1234567890;
  Arena.set_int a h1 8 (-1);
  Arena.free a h1;
  (* LIFO free list: the next alloc reuses the same row. *)
  let h2 = Arena.alloc a in
  Alcotest.(check int) "row reused" (h1 land 0xFFFFFFFF) (h2 land 0xFFFFFFFF);
  Alcotest.(check int) "field 0 zeroed" 0 (Arena.get_int a h2 0);
  Alcotest.(check int) "field 8 zeroed" 0 (Arena.get_int a h2 8)

(* Every byte of a reused row comes back zero, read in place: the key
   compare reads bytes 13-15 of the store's key head, and a fresh
   payload starts its counters from zero. *)
let test_arena_reuse_all_zero () =
  let stride = 40 in
  let a = Arena.create ~stride () in
  let h1 = Arena.alloc a in
  let i = Arena.index a h1 in
  Bytes.fill (Arena.slab a i) (Arena.offset a i) stride '\xff';
  Arena.free a h1;
  let h2 = Arena.alloc a in
  Alcotest.(check int) "row reused" i (Arena.index a h2);
  let b = Arena.slab a i and o = Arena.offset a i in
  for j = 0 to stride - 1 do
    Alcotest.(check int) (Printf.sprintf "byte %d zero" j) 0
      (Bytes.get_uint8 b (o + j))
  done;
  (* The same through the store: a removed key's row, reused by the next
     insert, holds only the new key. *)
  let store = Pfa.create ~payload:16 () in
  let k1 =
    Flow.make ~src:(Ipaddr.v 255 255 255 254) ~dst:(Ipaddr.v 255 255 255 255)
      ~proto:Flow.Icmp ~sport:65535 ~dport:65535 ()
  in
  let k2 =
    Flow.make ~src:(Ipaddr.v 10 0 0 1) ~dst:(Ipaddr.v 10 0 0 2) ~sport:1
      ~dport:2 ()
  in
  let pa = Pfa.arena store in
  let r = Arena.index pa (Pfa.insert store k1) in
  let b = Arena.slab pa r and o = Arena.offset pa r in
  Bytes.fill b (o + 13) (Pfa.payload_off + 16 - 13) '\xff';
  ignore (Pfa.remove store k1);
  Alcotest.(check int) "row reused by the next key" r
    (Arena.index pa (Pfa.insert store k2));
  for j = 13 to Pfa.payload_off + 15 do
    Alcotest.(check int) (Printf.sprintf "row byte %d zero" j) 0
      (Bytes.get_uint8 b (o + j))
  done;
  Alcotest.(check int) "old key absent" Arena.null (Pfa.find store k1)

let expect_stale f =
  Alcotest.(check bool) "stale handle rejected" true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let test_arena_stale_after_free () =
  let a = Arena.create ~stride:16 () in
  let h = Arena.alloc a in
  Arena.free a h;
  Alcotest.(check bool) "not live" false (Arena.is_live a h);
  expect_stale (fun () -> Arena.get_int a h 0);
  expect_stale (fun () -> Arena.set_u16 a h 0 1);
  expect_stale (fun () -> Arena.free a h)

let test_arena_stale_after_reuse () =
  let a = Arena.create ~stride:16 () in
  let h1 = Arena.alloc a in
  Arena.free a h1;
  let h2 = Arena.alloc a in
  (* Same row, different generation: the old handle must not read the
     new tenant's fields. *)
  Arena.set_int a h2 0 42;
  expect_stale (fun () -> Arena.get_int a h1 0);
  Alcotest.(check int) "new handle reads" 42 (Arena.get_int a h2 0);
  Alcotest.(check int) "null is stale" 1
    (try
       ignore (Arena.get_u8 a Arena.null 0);
       0
     with Invalid_argument _ -> 1)

(* The store's index keeps row indices, not handles: [index] and
   [handle_at] must round-trip a live row to the very handle [alloc]
   issued, answer [null] for a row with no live tenant, and leave a
   handle retired through free-list reuse rejected. *)
let test_arena_index_handle () =
  let a = Arena.create ~stride:16 () in
  let hs = Array.init 5 (fun _ -> Arena.alloc a) in
  Array.iter
    (fun h ->
      Alcotest.(check int) "live row maps back to its handle" h
        (Arena.handle_at a (Arena.index a h)))
    hs;
  let freed = hs.(2) in
  let i = Arena.index a freed in
  Arena.free a freed;
  Alcotest.(check int) "freed row maps to null" Arena.null (Arena.handle_at a i);
  Alcotest.(check int) "never-used row maps to null" Arena.null
    (Arena.handle_at a 5);
  Alcotest.(check int) "row beyond capacity maps to null" Arena.null
    (Arena.handle_at a (Arena.capacity a));
  expect_stale (fun () -> Arena.index a freed);
  (* LIFO reuse: the same row, a new generation. *)
  let reused = Arena.alloc a in
  Alcotest.(check int) "row reused" i (Arena.index a reused);
  Alcotest.(check int) "row maps to the new tenant" reused (Arena.handle_at a i);
  Alcotest.(check bool) "new handle differs" true (reused <> freed);
  expect_stale (fun () -> Arena.get_int a freed 0);
  expect_stale (fun () -> Arena.set_int a freed 0 1);
  expect_stale (fun () -> Arena.index a freed)

let test_arena_growth_and_iter () =
  let a = Arena.create ~stride:8 () in
  (* Cross many slab boundaries so growth, spine doubling included, is
     exercised. *)
  let n = 70_000 in
  let hs = Array.init n (fun _ -> Arena.alloc a) in
  Array.iteri (fun i h -> Arena.set_int a h 0 i) hs;
  Alcotest.(check int) "live" n (Arena.live a);
  Alcotest.(check bool) "capacity >= live" true (Arena.capacity a >= n);
  (* Free every third row; iter_rows must visit the rest in ascending
     row order regardless of the free pattern. *)
  let freed = ref 0 in
  Array.iteri
    (fun i h ->
      if i mod 3 = 0 then begin
        Arena.free a h;
        incr freed
      end)
    hs;
  Alcotest.(check int) "live after frees" (n - !freed) (Arena.live a);
  let seen = ref [] in
  Arena.iter_rows a (fun h _ _ -> seen := Arena.get_int a h 0 :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check int) "iter count" (n - !freed) (List.length seen);
  Alcotest.(check bool) "ascending row order" true
    (List.for_all2 ( < )
       (List.filteri (fun i _ -> i < List.length seen - 1) seen)
       (List.tl seen))

(* Slabs hold 2,048 rows. Rows on both sides of a boundary keep their
   own fields and sit in different slabs; the row just past the last
   slab (three slabs, so the spine of slab pointers has a spare entry
   there) has no handle, and a handle forged for it (odd generation,
   index at [capacity]) or for a never-used row raises. *)
let slab_rows = 2048

let test_arena_slab_boundary () =
  let a = Arena.create ~stride:24 () in
  let hs = Array.init ((2 * slab_rows) + 2) (fun _ -> Arena.alloc a) in
  Array.iteri (fun i h -> Arena.set_int a h 16 (i * 7)) hs;
  Alcotest.(check int) "three slabs" (3 * slab_rows) (Arena.capacity a);
  List.iter
    (fun i ->
      Alcotest.(check int) (Printf.sprintf "row %d index" i) i
        (Arena.index a hs.(i));
      Alcotest.(check int) (Printf.sprintf "row %d field" i) (i * 7)
        (Arena.get_int a hs.(i) 16))
    [ 0; slab_rows - 1; slab_rows; (2 * slab_rows) - 1; 2 * slab_rows ];
  Alcotest.(check bool) "boundary rows in different slabs" true
    (Arena.slab a (slab_rows - 1) != Arena.slab a slab_rows);
  Alcotest.(check int) "first row of the second slab at offset 0" 0
    (Arena.offset a slab_rows);
  let cap = Arena.capacity a in
  Alcotest.(check int) "handle_at capacity is null" Arena.null
    (Arena.handle_at a cap);
  let forged = (1 lsl 32) lor cap in
  Alcotest.(check bool) "forged handle past the end is not live" false
    (Arena.is_live a forged);
  expect_stale (fun () -> Arena.index a forged);
  expect_stale (fun () -> Arena.get_int a forged 0);
  expect_stale (fun () -> Arena.free a forged);
  let never_used = (1 lsl 32) lor ((2 * slab_rows) + 2) in
  expect_stale (fun () -> Arena.get_int a never_used 0)

(* [iter_rows] walks rows in ascending index across slabs, whatever the
   free pattern, and hands out each row's own handle, slab and
   offset. *)
let test_arena_iter_across_slabs () =
  let a = Arena.create ~stride:8 () in
  let n = (3 * slab_rows) + 5 in
  let hs = Array.init n (fun _ -> Arena.alloc a) in
  Array.iteri (fun i h -> if i mod 5 = 1 || i = slab_rows then Arena.free a h) hs;
  let seen = ref [] in
  Arena.iter_rows a (fun h b off ->
      let i = Arena.index a h in
      if Arena.slab a i != b || Arena.offset a i <> off then
        Alcotest.failf "row %d: wrong slab or offset" i;
      seen := i :: !seen);
  let want =
    List.filter (fun i -> not (i mod 5 = 1 || i = slab_rows)) (List.init n Fun.id)
  in
  Alcotest.(check (list int)) "live rows, ascending" want (List.rev !seen)

(* A small store costs what a small slab costs: 100 live 16-byte rows
   sit in one 2,048-row slab and its generation array, about 6,150
   words. A 32k-row slab held ~98,300. *)
let test_arena_small_size_budget () =
  let a = Arena.create ~stride:16 () in
  for _ = 1 to 100 do
    ignore (Arena.alloc a)
  done;
  let words = Obj.reachable_words (Obj.repr a) in
  Alcotest.(check bool)
    (Printf.sprintf "100 live rows hold < 8192 heap words (got %d)" words)
    true (words < 8192)

(* --- arena store vs boxed reference under churn ------------------------ *)

(* A tiny universe, so churn collides often, built from the edges of
   every key field: the enumeration packs keys into two ints, and a
   wrong shift or mask shows first at the top of the address range,
   at the extreme ports and on the higher protocol ranks. *)
let ips =
  [|
    Ipaddr.v 0 0 0 1; Ipaddr.v 10 0 0 1; Ipaddr.v 10 0 0 240;
    Ipaddr.v 127 255 255 255; Ipaddr.v 128 0 0 0; Ipaddr.v 192 168 1 1;
    Ipaddr.v 255 255 255 254; Ipaddr.v 255 255 255 255;
  |]

let ports = [| 0; 1; 255; 256; 65534; 65535 |]
let protos = [| Flow.Tcp; Flow.Udp; Flow.Icmp |]
let ip a b = ips.((a + (3 * b)) land 7)

let key a b =
  Flow.make ~src:(ip a b) ~dst:(ip b a)
    ~proto:protos.((a + b) mod 3)
    ~sport:ports.(a mod 6) ~dport:ports.(b mod 6) ()

let filter_of c a b =
  match c mod 10 with
  | 0 -> Filter.any
  | 1 -> Filter.of_src_host (ip a b)
  | 2 -> Filter.of_dst_host (ip a b)
  | 3 -> Filter.of_src_prefix (Ipaddr.Prefix.make (ip a b) 24)
  | 4 ->
    Filter.make ~src:(Ipaddr.Prefix.host (ip a b))
      ~dst:(Ipaddr.Prefix.host (ip b a)) ()
  | 5 -> Filter.make ~src:(Ipaddr.Prefix.host (ip a b)) ~dst_port:ports.(b mod 6) ()
  | 6 -> Filter.make ~proto:protos.((a + b) mod 3) ()
  | 7 -> Filter.of_src_prefix (Ipaddr.Prefix.make (ip a b) 1)
  | 8 -> Filter.make ~src_port:ports.(a mod 6) ()
  | _ -> Filter.of_key (key a b)

let ops_arb =
  QCheck.(list_of_size (Gen.int_range 1 120) (triple small_nat small_nat small_nat))

(* Payload: one int and one float field, as a stand-in for NF state. *)
let off_v = Pfa.payload_off
let off_f = Pfa.payload_off + 8

(* Ascending [Flow.compare] order over the model: what [matching] owes. *)
let model_matching f model =
  Flow.Map.fold
    (fun k _ acc -> if Filter.matches_flow f k then k :: acc else acc)
    model []
  |> List.rev

(* Removes free rows that later inserts reuse (LIFO), so row order
   drifts away from key order and enumeration has to sort. *)
let pfa_equiv =
  QCheck.Test.make
    ~name:"perflow arena == boxed reference under churn (random)" ~count:200
    ops_arb (fun ops ->
      let store = Pfa.create ~payload:16 () in
      let a = Pfa.arena store in
      let model = ref Flow.Map.empty in
      (* Handles retired by remove: every later access must raise. *)
      let stale = ref [] in
      List.for_all
        (fun (c, x, y) ->
          let k = Flow.canonical (key x y) in
          (match c mod 6 with
          | 0 | 1 ->
            let h = Pfa.insert store k in
            Arena.set_int a h off_v x;
            set_f64 a h off_f (float_of_int y);
            model := Flow.Map.add k (x, float_of_int y) !model
          | 2 ->
            let h = Pfa.find store k in
            if h <> Arena.null then stale := h :: !stale;
            let removed = Pfa.remove store k in
            if removed <> Flow.Map.mem k !model then
              QCheck.Test.fail_reportf "remove %s: presence disagreed"
                (Flow.to_string k);
            model := Flow.Map.remove k !model
          | 3 ->
            (* Mutate in place if present. *)
            let h = Pfa.find store k in
            if h <> Arena.null then begin
              Arena.set_int a h off_v (Arena.get_int a h off_v + 1);
              model :=
                Flow.Map.update k
                  (Option.map (fun (v, f) -> (v + 1, f)))
                  !model
            end
          | _ -> ());
          (* Point lookups agree. *)
          let h = Pfa.find store k in
          (match (h <> Arena.null, Flow.Map.find_opt k !model) with
          | false, None -> ()
          | true, Some (v, f) ->
            if Arena.get_int a h off_v <> v || get_f64 a h off_f <> f then
              QCheck.Test.fail_reportf "payload mismatch at %s"
                (Flow.to_string k);
            if Pfa.key_of store h <> k then
              QCheck.Test.fail_reportf "key_of mismatch at %s" (Flow.to_string k)
          | true, None ->
            QCheck.Test.fail_reportf "ghost entry %s" (Flow.to_string k)
          | false, Some _ ->
            QCheck.Test.fail_reportf "lost entry %s" (Flow.to_string k));
          if Pfa.size store <> Flow.Map.cardinal !model then
            QCheck.Test.fail_reportf "size %d != model %d" (Pfa.size store)
              (Flow.Map.cardinal !model);
          (* Scoped enumeration agrees with the model, in key order. *)
          let f = filter_of c x y in
          let got = List.map fst (Pfa.matching store f) in
          let want = model_matching f !model in
          if got <> want then
            QCheck.Test.fail_reportf "matching %s: %d entries, want %d"
              (Filter.to_string f) (List.length got) (List.length want);
          (* Retired handles stay rejected even after free-list reuse. *)
          List.for_all
            (fun h ->
              not (Arena.is_live a h)
              &&
              try
                ignore (Arena.get_int a h off_v);
                false
              with Invalid_argument _ -> true)
            !stale)
        ops)

(* Enumeration at a few thousand rows over the full key space: random
   addresses (half above 128.0.0.0, a quarter in one /24 so keys share
   a source and the top of the destination), every protocol, edge
   ports, and a remove/re-insert round so most rows sit out of key
   order. Each result must be the model's, in the model's order, with
   handles that point at their own keys. *)
let test_pfa_enumeration () =
  let st = Random.State.make [| 17 |] in
  let field bits =
    match Random.State.int st 8 with
    | 0 -> 0
    | 1 -> (1 lsl bits) - 1
    | _ -> Random.State.bits st land ((1 lsl bits) - 1)
  in
  let addr () =
    if Random.State.int st 4 = 0 then 0x0A010200 lor Random.State.int st 256
    else field 32
  in
  let rand_key () =
    Flow.make ~src:(Ipaddr.of_int (addr ())) ~dst:(Ipaddr.of_int (addr ()))
      ~proto:protos.(Random.State.int st 3)
      ~sport:(field 16) ~dport:(field 16) ()
  in
  let store = Pfa.create ~payload:0 () in
  let model = ref Flow.Map.empty in
  let add k =
    ignore (Pfa.insert store k);
    model := Flow.Map.add (Flow.canonical k) () !model
  in
  let keys = Array.init 4_000 (fun _ -> rand_key ()) in
  Array.iter add keys;
  Array.iteri
    (fun i k ->
      if i mod 3 = 0 then begin
        ignore (Pfa.remove store k);
        model := Flow.Map.remove (Flow.canonical k) !model
      end)
    keys;
  for _ = 1 to 1_500 do
    add (rand_key ())
  done;
  Alcotest.(check int) "size" (Flow.Map.cardinal !model) (Pfa.size store);
  let some = keys.(1) in
  List.iter
    (fun f ->
      let got = Pfa.matching store f in
      List.iter
        (fun (k, h) ->
          if Pfa.key_of store h <> k then
            Alcotest.failf "%s: handle of %s points elsewhere"
              (Filter.to_string f) (Flow.to_string k))
        got;
      Alcotest.(check (list string))
        (Filter.to_string f)
        (List.map Flow.to_string (model_matching f !model))
        (List.map (fun (k, _) -> Flow.to_string k) got))
    [
      Filter.any;
      Filter.of_src_prefix (Ipaddr.Prefix.make (Ipaddr.v 128 0 0 0) 1);
      Filter.of_src_prefix (Ipaddr.Prefix.make some.Flow.src_ip 4);
      Filter.make ~proto:Flow.Icmp ();
      Filter.make ~dst_port:65535 ();
      Filter.of_dst_host some.Flow.dst_ip;
    ]

(* --- timing wheel vs binary heap --------------------------------------- *)

(* The schedule/now/run surface both engines share. *)
module type SIM = sig
  type t

  val create : unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (unit -> unit) -> unit
  val run : t -> unit
  val processed : t -> int
end

module Wheel : SIM = struct
  include Engine

  let create () = Engine.create ()
  let run e = Engine.run e
end

module Heap : SIM = Oracle.Heap_engine

(* Random schedules on a coarse grid (frequent exact ties), with zero
   delays and nested scheduling from inside thunks. Both engines must
   log the same ((time, seq-order) → id) dispatch sequence. *)
let run_schedule (module Engine : SIM) ops =
  let e = Engine.create () in
  let log = ref [] in
  let n = ref 0 in
  List.iter
    (fun (c, a, b) ->
      incr n;
      let id = !n in
      let delay = float_of_int (a land 31) /. 8.0 in
      Engine.schedule e ~delay (fun () ->
          log := (Engine.now e, id) :: !log;
          match c mod 4 with
          | 0 ->
            (* Nested: relative delay, including zero. *)
            Engine.schedule e ~delay:(float_of_int (b land 7) /. 8.0) (fun () ->
                log := (Engine.now e, -id) :: !log)
          | 1 when b land 1 = 0 ->
            (* Far-future: exercises the wheel's overflow path. *)
            Engine.schedule e ~delay:1.0e9 (fun () ->
                log := (Engine.now e, 1_000_000 + id) :: !log)
          | _ -> ()))
    ops;
  Engine.run e;
  (List.rev !log, Engine.processed e, Engine.now e)

let wheel_heap_equiv =
  QCheck.Test.make ~name:"timing wheel == binary heap dispatch order (random)"
    ~count:120 ops_arb (fun ops ->
      let heap = run_schedule (module Heap) ops in
      let wheel = run_schedule (module Wheel) ops in
      if heap <> wheel then
        let (lh, ph, _), (lw, pw, _) = (heap, wheel) in
        QCheck.Test.fail_reportf
          "diverged: heap %d dispatches, wheel %d; first heap %s wheel %s" ph pw
          (match lh with (t, i) :: _ -> Printf.sprintf "(%g,%d)" t i | [] -> "-")
          (match lw with (t, i) :: _ -> Printf.sprintf "(%g,%d)" t i | [] -> "-")
      else true)

let test_wheel_far_future () =
  let far (module Engine : SIM) =
    let e = Engine.create () in
    let log = ref [] in
    Engine.schedule e ~delay:2.0e9 (fun () -> log := "far" :: !log);
    Engine.schedule e ~delay:0.5 (fun () -> log := "near" :: !log);
    Engine.schedule e ~delay:1.0e6 (fun () -> log := "mid" :: !log);
    Engine.run e;
    (List.rev !log, Engine.now e)
  in
  let by_wheel, clock = far (module Wheel) in
  Alcotest.(check (list string))
    "overflow dispatch order" [ "near"; "mid"; "far" ] by_wheel;
  Alcotest.(check (float 1e-3)) "clock at far event" 2.0e9 clock;
  Alcotest.(check (pair (list string) (float 0.0)))
    "matches heap" (far (module Heap)) (by_wheel, clock)

let test_wheel_many_ties () =
  (* Thousands of events at identical times: FIFO within each instant. *)
  let ties (module Engine : SIM) =
    let e = Engine.create () in
    let log = ref [] in
    for i = 0 to 4_999 do
      Engine.schedule e ~delay:(float_of_int (i mod 5) /. 10.0) (fun () ->
          log := i :: !log)
    done;
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list int))
    "tie order matches heap" (ties (module Heap)) (ties (module Wheel))

(* --- NAT port allocation (regression) ---------------------------------- *)

let mk_packet =
  let next = ref 9000 in
  fun ?(flags = []) key ->
    incr next;
    Packet.create ~id:!next ~key ~flags ~sent_at:0.0 ()

let client_key i =
  Flow.make ~src:(Ipaddr.v 10 1 0 i) ~dst:(Ipaddr.v 192 168 0 1)
    ~proto:Flow.Tcp ~sport:(40_000 + i) ~dport:80 ()

let test_nat_port_wrap_and_recycle () =
  (* A six-port range: 65530..65535. The old allocator marched
     next_port past 65535 here. *)
  let nat = Opennf_nfs.Nat.create ~port_base:65530 ~port_limit:65535 () in
  let impl = Opennf_nfs.Nat.impl nat in
  for i = 0 to 5 do
    impl.Opennf_sb.Nf_api.process_packet (mk_packet ~flags:[ Syn ] (client_key i))
  done;
  Alcotest.(check int) "range filled" 6 (Opennf_nfs.Nat.entry_count nat);
  for i = 0 to 5 do
    match Opennf_nfs.Nat.translation_of nat (client_key i) with
    | Some p ->
      Alcotest.(check bool)
        (Printf.sprintf "port %d in range" p)
        true
        (p >= 65530 && p <= 65535)
    | None -> Alcotest.fail "missing translation"
  done;
  (* Exhausted: a seventh flow gets no entry and is counted. *)
  impl.Opennf_sb.Nf_api.process_packet (mk_packet ~flags:[ Syn ] (client_key 6));
  Alcotest.(check int) "no entry on exhaustion" 6 (Opennf_nfs.Nat.entry_count nat);
  Alcotest.(check int) "exhaustion counted" 1 (Opennf_nfs.Nat.exhausted_count nat);
  Alcotest.(check (option int))
    "seventh flow untranslated" None
    (Opennf_nfs.Nat.translation_of nat (client_key 6));
  (* Close flow 2; its port must be recycled for the next new flow. *)
  let freed_port =
    match Opennf_nfs.Nat.translation_of nat (client_key 2) with
    | Some p -> p
    | None -> Alcotest.fail "flow 2 lost"
  in
  impl.Opennf_sb.Nf_api.process_packet (mk_packet ~flags:[ Rst ] (client_key 2));
  Alcotest.(check bool) "flow 2 closed" true
    (Opennf_nfs.Nat.state_of nat (client_key 2) = Some Opennf_nfs.Nat.Closed);
  impl.Opennf_sb.Nf_api.process_packet (mk_packet ~flags:[ Syn ] (client_key 7));
  Alcotest.(check (option int))
    "closed port recycled" (Some freed_port)
    (Opennf_nfs.Nat.translation_of nat (client_key 7));
  Alcotest.(check bool) "closed entry evicted" true
    (Opennf_nfs.Nat.state_of nat (client_key 2) = None);
  Alcotest.(check int) "entry count steady" 6 (Opennf_nfs.Nat.entry_count nat)

let test_nat_port_wraps_cursor () =
  (* Allocation order itself wraps: after filling and recycling, the
     cursor walks the range circularly instead of growing unboundedly. *)
  let nat = Opennf_nfs.Nat.create ~port_base:50_000 ~port_limit:50_001 () in
  let impl = Opennf_nfs.Nat.impl nat in
  for round = 0 to 9 do
    let k = client_key (round land 63) in
    impl.Opennf_sb.Nf_api.process_packet (mk_packet ~flags:[ Syn ] k);
    (match Opennf_nfs.Nat.translation_of nat k with
    | Some p ->
      Alcotest.(check bool) "wrapped port" true (p = 50_000 || p = 50_001)
    | None -> Alcotest.fail "allocation failed with recyclable ports");
    (* Close it so the next round can recycle. *)
    impl.Opennf_sb.Nf_api.process_packet (mk_packet ~flags:[ Rst ] k)
  done

let suite =
  [
    Alcotest.test_case "arena: field roundtrip" `Quick test_arena_roundtrip;
    Alcotest.test_case "arena: rows zeroed on reuse" `Quick
      test_arena_zeroed_on_reuse;
    Alcotest.test_case "arena: reused row is all zero in place" `Quick
      test_arena_reuse_all_zero;
    Alcotest.test_case "arena: stale after free" `Quick
      test_arena_stale_after_free;
    Alcotest.test_case "arena: stale after reuse" `Quick
      test_arena_stale_after_reuse;
    Alcotest.test_case "arena: growth and ordered iteration" `Quick
      test_arena_growth_and_iter;
    QCheck_alcotest.to_alcotest pfa_equiv;
    Alcotest.test_case "perflow arena: enumeration order at 5k rows" `Quick
      test_pfa_enumeration;
    QCheck_alcotest.to_alcotest wheel_heap_equiv;
    Alcotest.test_case "wheel: far-future overflow" `Quick
      test_wheel_far_future;
    Alcotest.test_case "wheel: 5k ties keep FIFO" `Quick test_wheel_many_ties;
    Alcotest.test_case "nat: port wrap + Closed recycle" `Quick
      test_nat_port_wrap_and_recycle;
    Alcotest.test_case "nat: cursor wraps the range" `Quick
      test_nat_port_wraps_cursor;
    Alcotest.test_case "arena: row index and handle conversions" `Quick
      test_arena_index_handle;
    Alcotest.test_case "arena: rows on both sides of a slab boundary" `Quick
      test_arena_slab_boundary;
    Alcotest.test_case "arena: iteration ascends across slabs" `Quick
      test_arena_iter_across_slabs;
    Alcotest.test_case "arena: 100 rows cost one small slab" `Quick
      test_arena_small_size_budget;
  ]
