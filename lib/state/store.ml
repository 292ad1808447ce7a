open Opennf_net

(* Deterministic enumeration: results are in key order so simulation
   runs do not depend on hash-table iteration order. Every store holds
   its entries once, in a hash table or an arena (O(1) point lookups on
   the packet path), with no secondary index or sorted mirror, and
   sorts on query: an enumeration collects the matches and sorts only
   those. On the packet path nothing is polymorphic: the arena store
   compares a key as two 64-bit words of its row head ({!Key_row}) and
   hands back a handle the NF validates once before it works on the
   row in place, and the per-host table hashes and compares ints. *)

module Perflow = struct
  (* One canonical-keyed table and nothing else: an exact-key filter is
     a probe, any other filter folds the table (each key once, whichever
     endpoints match) and sorts the matches. *)
  type 'a t = 'a Flow.Table.t

  let create () : 'a t = Flow.Table.create 64
  let find t k = Flow.Table.find_opt t (Flow.canonical k)
  let set t k v = Flow.Table.replace t (Flow.canonical k) v
  let remove t k = Flow.Table.remove t (Flow.canonical k)
  let mem t k = Flow.Table.mem t (Flow.canonical k)

  let matching t filter =
    match Filter.exact_key filter with
    | Some key -> (
      let k = Flow.canonical key in
      match Flow.Table.find_opt t k with Some v -> [ (k, v) ] | None -> [])
    | None ->
      Flow.Table.fold
        (fun k v acc ->
          if Filter.matches_flow filter k then (k, v) :: acc else acc)
        t []
      |> List.sort (fun (a, _) (b, _) -> Flow.compare a b)

  let fold t ~init ~f = Flow.Table.fold (fun k v acc -> f k v acc) t init
  let size = Flow.Table.length
end

(* Arena-backed per-flow store: same key semantics as {!Perflow}
   (canonicalized 5-tuples) but rows live in an {!Opennf_util.Arena}
   slab — the GC never walks them — and the value is not an OCaml
   object at all: the NF validates a handle once and reads and writes
   the row payload in place. Point lookups go through a flat
   open-addressing index (an int array: no buckets, no cons cells)
   whose entries carry a hash tag beside the row index, so a probe
   reads a row only when the tags agree — straight from the entry's
   row index, with no generation read first — and compares its key as
   two 64-bit words ({!Key_row}); growing the index reads no rows.
   Nothing else grows with the rows: insert and remove touch only the
   index and the row, and a non-exact [matching] sorts on query — it
   scans the live rows and sorts only the matches. *)
module Perflow_arena = struct
  module Arena = Opennf_util.Arena

  (* Row layout: the {!Key_row} head (13 key bytes, bytes 13-15 zero),
     then the payload at {!payload_off}, 8-aligned. *)
  let payload_off = 16

  (* Index entry: 0 = empty, -1 = tombstone, else
     [occupied | tag lsl 32 | row index], positive. The tag is the low
     [tag_bits] of the key's hash; the slot count stays below
     [1 lsl tag_bits], so the tag also holds the entry's home slot. An
     entry's row is live for as long as the entry is. *)
  let tag_bits = 29
  let tag_mask = (1 lsl tag_bits) - 1
  let occupied = 1 lsl tag_bits (* above the tag, once shifted *)
  let row_mask = (1 lsl 32) - 1
  let max_slots = 1 lsl (tag_bits - 1)

  type t = {
    arena : Arena.t;
    mutable idx : int array;
    mutable mask : int;
    mutable count : int;
    mutable tombs : int;
  }

  let create ~payload () =
    if payload < 0 then invalid_arg "Perflow_arena.create: negative payload";
    {
      arena = Arena.create ~stride:(payload_off + payload) ();
      idx = Array.make 64 0;
      mask = 63;
      count = 0;
      tombs = 0;
    }

  let arena t = t.arena
  let size t = t.count

  (* From slot [i]: the slot holding the key whose tagged entry head is
     [want] ([occupied lor tag]), or -1. A tombstone's head (-1 lsr 32)
     is above every [want], so one compare screens both. *)
  let rec probe t i want src dst w1 =
    let v = Array.unsafe_get t.idx i in
    if v = 0 then -1
    else if
      v lsr 32 = want
      &&
      let r = v land row_mask in
      Key_row.matches (Arena.slab t.arena r) (Arena.offset t.arena r) src dst w1
    then i
    else probe t ((i + 1) land t.mask) want src dst w1

  (* From slot [i] of [idx]: the first slot holding no live entry. *)
  let rec vacant idx mask i =
    if idx.(i) > 0 then vacant idx mask ((i + 1) land mask) else i

  let resize t slots =
    if slots > max_slots then
      invalid_arg "Perflow_arena: index would exceed 2^28 slots";
    let idx = Array.make slots 0 and mask = slots - 1 in
    Array.iter
      (fun v -> if v > 0 then idx.(vacant idx mask ((v lsr 32) land mask)) <- v)
      t.idx;
    t.idx <- idx;
    t.mask <- mask;
    t.tombs <- 0

  let key_of t h =
    let i = Arena.index t.arena h in
    let b = Arena.slab t.arena i and o = Arena.offset t.arena i in
    (* [Ipaddr.of_int] keeps the low 32 bits of the sign-extended loads. *)
    {
      Flow.src_ip = Ipaddr.of_int (Int32.to_int (Bytes.get_int32_le b o));
      dst_ip = Ipaddr.of_int (Int32.to_int (Bytes.get_int32_le b (o + 4)));
      proto = Key_row.proto_of_rank (Bytes.get_uint8 b (o + 8));
      src_port = Bytes.get_uint16_le b (o + 9);
      dst_port = Bytes.get_uint16_le b (o + 11);
    }

  let[@inline] tag src dst pr sp dp =
    Key_row.hash src dst pr sp dp land tag_mask

  (* The slot of a canonical key with tag [tag], or -1. *)
  let[@inline] slot t tag src dst w1 =
    probe t (tag land t.mask) (occupied lor tag) src dst w1

  (* Keys are canonicalized field by field: when [Flow.canonical] would
     reverse [k], its endpoints are passed swapped, so no reversed
     record is built. *)
  let[@inline] reversed src dst sp dp = src > dst || (src = dst && sp > dp)

  (* The slot of the key's canonical form, or -1. *)
  let slot_of t k =
    let src = Ipaddr.to_int k.Flow.src_ip and dst = Ipaddr.to_int k.Flow.dst_ip in
    let sp = k.Flow.src_port and dp = k.Flow.dst_port in
    let pr = Key_row.rank k.Flow.proto in
    if reversed src dst sp dp then
      slot t (tag dst src pr dp sp) dst src (Key_row.word1 pr dp sp)
    else slot t (tag src dst pr sp dp) src dst (Key_row.word1 pr sp dp)

  let[@inline] handle_in t s =
    Arena.handle_at t.arena (Array.unsafe_get t.idx s land row_mask)

  (* Box-free point lookup: [Arena.null] means absent. Only the
     matching row's handle is built. *)
  let find t k =
    let s = slot_of t k in
    if s = -1 then Arena.null else handle_in t s

  let insert5 t src dst pr sp dp =
    let hash = tag src dst pr sp dp and w1 = Key_row.word1 pr sp dp in
    let s = slot t hash src dst w1 in
    if s <> -1 then handle_in t s
    else begin
      (* Keep (live + tombstones) at or below half the slots once this
         key is in: purge the tombstones, or double when the live keys
         alone would pass half. Resizing first leaves the store as it
         was when the index is at its size limit. *)
      let n = t.count + 1 and slots = t.mask + 1 in
      if 2 * (n + t.tombs) > slots then
        resize t (if 2 * n > slots then 2 * slots else slots);
      let h = Arena.alloc t.arena in
      let r = Arena.index t.arena h in
      Key_row.write (Arena.slab t.arena r) (Arena.offset t.arena r) src dst w1;
      let i = vacant t.idx t.mask (hash land t.mask) in
      if t.idx.(i) = -1 then t.tombs <- t.tombs - 1;
      t.idx.(i) <- ((occupied lor hash) lsl 32) lor r;
      t.count <- n;
      h
    end

  let insert t k =
    let src = Ipaddr.to_int k.Flow.src_ip and dst = Ipaddr.to_int k.Flow.dst_ip in
    let sp = k.Flow.src_port and dp = k.Flow.dst_port in
    let pr = Key_row.rank k.Flow.proto in
    if reversed src dst sp dp then insert5 t dst src pr dp sp
    else insert5 t src dst pr sp dp

  let remove t k =
    let s = slot_of t k in
    if s = -1 then false
    else begin
      Arena.free t.arena (handle_in t s);
      t.idx.(s) <- -1;
      t.count <- t.count - 1;
      t.tombs <- t.tombs + 1;
      true
    end

  (* Sort on query. A match is a flat (k1, k2, handle) triple: its
     canonical key packs into [k1] (src, then the top 24 bits of dst)
     and [k2] (the low 8 bits of dst, proto rank, sport, dport). Both
     are non-negative and field-aligned, so ascending (k1, k2) is
     ascending [Flow.compare] and sorting never reads the arena. The
     sort is an LSD radix sort on 11-bit digits (five of [k2], then six
     of [k1]) that skips a digit all matches share; matches already in
     order, as rows inserted in key order are, cost one linear check. *)
  let sort_triples (rows : int array) n =
    let sorted = ref true in
    for i = 1 to n - 1 do
      let a = rows.(3 * (i - 1)) and b = rows.(3 * i) in
      if a > b || (a = b && rows.((3 * i) - 2) > rows.((3 * i) + 1)) then
        sorted := false
    done;
    if !sorted then rows
    else begin
      let count = Array.make 2049 0 in
      let src = ref rows and dst = ref (Array.make (3 * n) 0) in
      for pass = 0 to 10 do
        let w = if pass < 5 then 1 else 0 in
        let sh = 11 * if pass < 5 then pass else pass - 5 in
        let r = !src and d = !dst in
        Array.fill count 0 2049 0;
        for i = 0 to n - 1 do
          let b = ((r.((3 * i) + w) lsr sh) land 2047) + 1 in
          count.(b) <- count.(b) + 1
        done;
        if count.(((r.(w) lsr sh) land 2047) + 1) < n then begin
          for b = 1 to 2048 do
            count.(b) <- count.(b) + count.(b - 1)
          done;
          for i = 0 to n - 1 do
            let b = (r.((3 * i) + w) lsr sh) land 2047 in
            let o = 3 * count.(b) in
            count.(b) <- count.(b) + 1;
            d.(o) <- r.(3 * i);
            d.(o + 1) <- r.((3 * i) + 1);
            d.(o + 2) <- r.((3 * i) + 2)
          done;
          src := d;
          dst := r
        end
      done;
      !src
    end

  let matching t filter =
    match Filter.exact_key filter with
    | Some key ->
      let h = find t key in
      if h = Arena.null then [] else [ (key_of t h, h) ]
    | None ->
      (* Room for every live row, allocated once: the scan visits each
         row anyway, and a buffer that doubled from 16 triples cost
         about a third of a 10k-row scan. *)
      let rows = Array.make (3 * t.count) 0 and n = ref 0 in
      Arena.iter_rows t.arena (fun h b off ->
          let src =
            Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + 2) lsl 16)
          and dst =
            Bytes.get_uint16_le b (off + 4)
            lor (Bytes.get_uint16_le b (off + 6) lsl 16)
          and pr = Bytes.get_uint8 b (off + 8)
          and sp = Bytes.get_uint16_le b (off + 9)
          and dp = Bytes.get_uint16_le b (off + 11) in
          if
            Filter.matches_conn filter ~src:(Ipaddr.of_int src)
              ~dst:(Ipaddr.of_int dst) ~proto:(Key_row.proto_of_rank pr)
              ~sport:sp ~dport:dp
          then begin
            let o = 3 * !n in
            rows.(o) <- (src lsl 24) lor (dst lsr 8);
            rows.(o + 1) <-
              ((dst land 0xFF) lsl 40) lor (pr lsl 32) lor (sp lsl 16) lor dp;
            rows.(o + 2) <- h;
            incr n
          end);
      let r = sort_triples rows !n in
      let acc = ref [] in
      for i = !n - 1 downto 0 do
        let k1 = r.(3 * i) and k2 = r.((3 * i) + 1) in
        let key =
          {
            Flow.src_ip = Ipaddr.of_int (k1 lsr 24);
            dst_ip = Ipaddr.of_int (((k1 land 0xFFFFFF) lsl 8) lor (k2 lsr 40));
            proto = Key_row.proto_of_rank ((k2 lsr 32) land 0xFF);
            src_port = (k2 lsr 16) land 0xFFFF;
            dst_port = k2 land 0xFFFF;
          }
        in
        acc := (key, r.((3 * i) + 2)) :: !acc
      done;
      !acc
end

module Per_host = struct
  (* A monomorphic table: hashing and equality are int operations, with
     no polymorphic [caml_hash] or [compare] per lookup. The hash mixes
     every address bit into the low bits the table indexes by: the
     identity would put hosts that differ only in a high octet in one
     bucket. *)
  module H = Hashtbl.Make (struct
    type t = Ipaddr.t

    let equal = Ipaddr.equal

    let hash ip =
      let h = Ipaddr.to_int ip * 0x2545F4914F6CDD1D in
      (h lxor (h lsr 29)) land max_int
  end)

  type 'a t = 'a H.t

  let create () : 'a t = H.create 64
  let find = H.find_opt
  let set = H.replace
  let remove = H.remove

  (* The hit path allocates nothing: [H.find] hands the value back
     unwrapped, and a miss is the exception. *)
  let find_or_add t ip make =
    match H.find t ip with
    | v -> v
    | exception Not_found ->
      let v = make ip in
      H.add t ip v;
      v

  let update t ip ~default ~f =
    let current = match find t ip with Some v -> v | None -> default () in
    set t ip (f current)

  (* When every address constraint pins a single host, probe the table
     instead of walking it. [matches_host] is satisfied by either
     endpoint constraint, so the candidates are the union of the pinned
     hosts (deduplicated, ascending). *)
  let exact_host = function
    | None -> Some None (* no constraint on this endpoint *)
    | Some p when Ipaddr.Prefix.bits p = 32 ->
      Some (Some (Ipaddr.Prefix.network p))
    | Some _ -> None (* wide prefix: no cheap candidate set *)

  let host_candidates filter =
    match (exact_host filter.Filter.src, exact_host filter.Filter.dst) with
    | Some None, Some None -> None (* unconstrained: fold and sort *)
    | Some (Some a), Some (Some b) ->
      let c = Ipaddr.compare a b in
      Some (if c < 0 then [ a; b ] else if c = 0 then [ a ] else [ b; a ])
    | Some (Some a), Some None | Some None, Some (Some a) -> Some [ a ]
    | None, _ | _, None -> None

  let matching t filter =
    match host_candidates filter with
    | Some hosts ->
      List.filter_map
        (fun ip ->
          if Filter.matches_host filter ip then
            Option.map (fun v -> (ip, v)) (H.find_opt t ip)
          else None)
        hosts
    | None ->
      H.fold
        (fun ip v acc ->
          if Filter.matches_host filter ip then (ip, v) :: acc else acc)
        t []
      |> List.sort (fun (a, _) (b, _) -> Ipaddr.compare a b)

  let fold t ~init ~f = H.fold (fun k v acc -> f k v acc) t init
  let size = H.length
end

module Keyed = struct
  type ('k, 'a) t = {
    table : ('k, 'a) Hashtbl.t;
    relevant : Filter.t -> 'k -> 'a -> bool;
  }

  let create ~relevant () = { table = Hashtbl.create 64; relevant }
  let find t k = Hashtbl.find_opt t.table k
  let set t k v = Hashtbl.replace t.table k v
  let remove t k = Hashtbl.remove t.table k

  let matching t filter =
    Hashtbl.fold
      (fun k v acc -> if t.relevant filter k v then (k, v) :: acc else acc)
      t.table []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

  let fold t ~init ~f = Hashtbl.fold (fun k v acc -> f k v acc) t.table init
  let size t = Hashtbl.length t.table
end
