module Omap = Opennf_util.Omap
open Opennf_net

(* Deterministic enumeration: results are in key order so simulation
   runs do not depend on hash-table iteration order. Each store pairs a
   hash table (O(1) point lookups on the packet path) with an
   always-sorted mirror ({!Opennf_util.Omap}, O(log n) update), so a
   scoped enumeration is an in-order walk — never materialize-then-sort
   on the query path. *)

module Perflow = struct
  (* Alongside the canonical-keyed value table, a secondary index maps
     each endpoint address to the set of canonical keys touching it, so
     host- and prefix-scoped getters enumerate candidates instead of
     folding the whole store. *)
  type 'a t = {
    table : 'a Flow.Table.t;
    by_host : (Ipaddr.t, Flow.Set.t ref) Hashtbl.t;
    sorted : (Flow.key, 'a) Omap.t;
  }

  let create () =
    {
      table = Flow.Table.create 64;
      by_host = Hashtbl.create 64;
      sorted = Omap.create ~cmp:Flow.compare;
    }

  let find t k = Flow.Table.find_opt t.table (Flow.canonical k)

  let index_add t ip k =
    match Hashtbl.find_opt t.by_host ip with
    | Some s -> s := Flow.Set.add k !s
    | None -> Hashtbl.replace t.by_host ip (ref (Flow.Set.singleton k))

  let index_remove t ip k =
    match Hashtbl.find_opt t.by_host ip with
    | None -> ()
    | Some s ->
      s := Flow.Set.remove k !s;
      if Flow.Set.is_empty !s then Hashtbl.remove t.by_host ip

  let set t k v =
    let k = Flow.canonical k in
    if not (Flow.Table.mem t.table k) then begin
      index_add t k.Flow.src_ip k;
      index_add t k.Flow.dst_ip k
    end;
    Flow.Table.replace t.table k v;
    Omap.set t.sorted k v

  let remove t k =
    let k = Flow.canonical k in
    if Flow.Table.mem t.table k then begin
      Flow.Table.remove t.table k;
      index_remove t k.Flow.src_ip k;
      index_remove t k.Flow.dst_ip k;
      Omap.remove t.sorted k
    end

  let mem t k = Flow.Table.mem t.table (Flow.canonical k)

  (* Candidate sets ({!Flow.Set}) already enumerate in [Flow.compare]
     order, so folding and reversing reproduces the sorted result with
     no comparison sort at all. *)
  let of_candidates t filter keys =
    Flow.Set.fold
      (fun k acc ->
        if Filter.matches_flow filter k then
          match Flow.Table.find_opt t.table k with
          | Some v -> (k, v) :: acc
          | None -> acc
        else acc)
      keys []
    |> List.rev

  (* Candidates for an address constraint: a connection matches only if
     one of its endpoints lies in the prefix ({!Filter.matches_flow}
     tries both directions), and the index holds every key under both
     endpoints, so the union over the prefix's hosts is complete. *)
  let prefix_candidates t p =
    if Ipaddr.Prefix.bits p = 32 then
      match Hashtbl.find_opt t.by_host (Ipaddr.Prefix.network p) with
      | Some s -> !s
      | None -> Flow.Set.empty
    else
      Hashtbl.fold
        (fun ip s acc ->
          if Ipaddr.Prefix.mem ip p then Flow.Set.union !s acc else acc)
        t.by_host Flow.Set.empty

  let matching t filter =
    match Filter.exact_key filter with
    | Some key -> (
      (* O(1): the filter pins one connection. *)
      let k = Flow.canonical key in
      match Flow.Table.find_opt t.table k with
      | Some v -> [ (k, v) ]
      | None -> [])
    | None -> (
      match (filter.Filter.src, filter.Filter.dst) with
      | Some p, _ | None, Some p ->
        of_candidates t filter (prefix_candidates t p)
      | None, None ->
        (* Unscoped: in-order walk of the sorted mirror. A descending
           fold with prepend yields the ascending list directly. *)
        Omap.fold_desc
          (fun k v acc ->
            if Filter.matches_flow filter k then (k, v) :: acc else acc)
          t.sorted [])

  let fold t ~init ~f = Flow.Table.fold (fun k v acc -> f k v acc) t.table init
  let size t = Flow.Table.length t.table
end

(* Arena-backed per-flow store: same key semantics as {!Perflow}
   (canonicalized 5-tuples) but rows live in an {!Opennf_util.Arena}
   slab — the GC never walks them — and the value is not an OCaml
   object at all: the NF reads and writes typed fields of the row
   payload through an integer handle. Point lookups go through a flat
   open-addressing index (an int array: no buckets, no cons cells);
   ordered enumeration walks the same {!Opennf_util.Omap} mirror shape
   as {!Perflow}, except the mirror is keyed by handles and the
   comparator reads the 5-tuple straight out of the row bytes. *)
module Perflow_arena = struct
  module Arena = Opennf_util.Arena

  (* Row layout: canonical key at offset 0, payload at {!payload_off}.
     13 key bytes, then padding so NF payload layouts start 8-aligned. *)
  let payload_off = 16
  let proto_rank = function Flow.Tcp -> 0 | Flow.Udp -> 1 | Flow.Icmp -> 2
  let proto_of_rank = function
    | 0 -> Flow.Tcp
    | 1 -> Flow.Udp
    | 2 -> Flow.Icmp
    | r -> invalid_arg (Printf.sprintf "Perflow_arena: proto rank %d" r)

  type t = {
    arena : Arena.t;
    (* Open-addressing index: slot 0 = empty, -1 = tombstone, else a
       live handle (handles are never 0: live generations are odd). *)
    mutable idx : int array;
    mutable mask : int;
    mutable count : int;
    mutable tombs : int;
    mirror : (Arena.handle, unit) Omap.t;
  }

  let min_slots = 64

  (* Same field order as [Flow.compare], read from row bytes. *)
  let cmp_rows arena a b =
    let c = Int.compare (Arena.get_u32 arena a 0) (Arena.get_u32 arena b 0) in
    if c <> 0 then c
    else
      let c = Int.compare (Arena.get_u32 arena a 4) (Arena.get_u32 arena b 4) in
      if c <> 0 then c
      else
        let c = Int.compare (Arena.get_u8 arena a 8) (Arena.get_u8 arena b 8) in
        if c <> 0 then c
        else
          let c =
            Int.compare (Arena.get_u16 arena a 9) (Arena.get_u16 arena b 9)
          in
          if c <> 0 then c
          else
            Int.compare (Arena.get_u16 arena a 11) (Arena.get_u16 arena b 11)

  let create ~payload () =
    if payload < 0 then invalid_arg "Perflow_arena.create: negative payload";
    let arena = Arena.create ~stride:(payload_off + payload) () in
    {
      arena;
      idx = Array.make min_slots 0;
      mask = min_slots - 1;
      count = 0;
      tombs = 0;
      mirror = Omap.create ~cmp:(cmp_rows arena);
    }

  let arena t = t.arena
  let size t = t.count

  (* Integer hash over the five key fields — applied identically to a
     [Flow.key] record and to row bytes, so probes need no boxing. *)
  let[@inline] mix h v = (h lxor v) * 0x2545F4914F6CDD1D
  let[@inline] hash5 src dst pr sp dp =
    let h = mix (mix (mix (mix (mix 0x9E3779B9 src) dst) pr) sp) dp in
    (h lxor (h lsr 29)) land max_int

  let[@inline] row_matches t h src dst pr sp dp =
    Arena.get_u32 t.arena h 0 = src
    && Arena.get_u32 t.arena h 4 = dst
    && Arena.get_u8 t.arena h 8 = pr
    && Arena.get_u16 t.arena h 9 = sp
    && Arena.get_u16 t.arena h 11 = dp

  (* Find the slot holding the key, or -1. Canonical key fields only. *)
  let probe_find t src dst pr sp dp =
    let hash = hash5 src dst pr sp dp in
    let i = ref (hash land t.mask) in
    let slot = ref (-1) in
    let continue = ref true in
    while !continue do
      let v = t.idx.(!i) in
      if v = 0 then continue := false
      else if v <> -1 && row_matches t v src dst pr sp dp then begin
        slot := !i;
        continue := false
      end
      else i := (!i + 1) land t.mask
    done;
    !slot

  let rehash t slots =
    let idx = Array.make slots 0 in
    let mask = slots - 1 in
    Array.iter
      (fun v ->
        if v <> 0 && v <> -1 then begin
          let hash =
            hash5 (Arena.get_u32 t.arena v 0) (Arena.get_u32 t.arena v 4)
              (Arena.get_u8 t.arena v 8)
              (Arena.get_u16 t.arena v 9)
              (Arena.get_u16 t.arena v 11)
          in
          let i = ref (hash land mask) in
          while idx.(!i) <> 0 do
            i := (!i + 1) land mask
          done;
          idx.(!i) <- v
        end)
      t.idx;
    t.idx <- idx;
    t.mask <- mask;
    t.tombs <- 0

  let key_of t h =
    {
      Flow.src_ip = Ipaddr.of_int (Arena.get_u32 t.arena h 0);
      dst_ip = Ipaddr.of_int (Arena.get_u32 t.arena h 4);
      proto = proto_of_rank (Arena.get_u8 t.arena h 8);
      src_port = Arena.get_u16 t.arena h 9;
      dst_port = Arena.get_u16 t.arena h 11;
    }

  (* Box-free point lookup: [Arena.null] means absent. *)
  let find t k =
    let k = Flow.canonical k in
    let s =
      probe_find t
        (Ipaddr.to_int k.Flow.src_ip)
        (Ipaddr.to_int k.Flow.dst_ip)
        (proto_rank k.Flow.proto) k.Flow.src_port k.Flow.dst_port
    in
    if s = -1 then Arena.null else t.idx.(s)

  let find_opt t k =
    let h = find t k in
    if h = Arena.null then None else Some h

  let mem t k = find t k <> Arena.null

  let insert t k =
    let k = Flow.canonical k in
    let src = Ipaddr.to_int k.Flow.src_ip
    and dst = Ipaddr.to_int k.Flow.dst_ip
    and pr = proto_rank k.Flow.proto
    and sp = k.Flow.src_port
    and dp = k.Flow.dst_port in
    (* One pass: find the key, remembering the first reusable slot. *)
    let hash = hash5 src dst pr sp dp in
    let i = ref (hash land t.mask) in
    let free = ref (-1) in
    let found = ref 0 in
    let continue = ref true in
    while !continue do
      let v = t.idx.(!i) in
      if v = 0 then begin
        if !free = -1 then free := !i;
        continue := false
      end
      else if v = -1 then begin
        if !free = -1 then free := !i;
        i := (!i + 1) land t.mask
      end
      else if row_matches t v src dst pr sp dp then begin
        found := v;
        continue := false
      end
      else i := (!i + 1) land t.mask
    done;
    if !found <> 0 then !found
    else begin
      let h = Arena.alloc t.arena in
      Arena.set_u32 t.arena h 0 src;
      Arena.set_u32 t.arena h 4 dst;
      Arena.set_u8 t.arena h 8 pr;
      Arena.set_u16 t.arena h 9 sp;
      Arena.set_u16 t.arena h 11 dp;
      if t.idx.(!free) = -1 then t.tombs <- t.tombs - 1;
      t.idx.(!free) <- h;
      t.count <- t.count + 1;
      Omap.set t.mirror h ();
      (* Keep (live + tombstones) at or below half the slots. *)
      if 2 * (t.count + t.tombs) > t.mask + 1 then begin
        let slots = ref (t.mask + 1) in
        while 2 * (t.count + 1) > !slots do
          slots := !slots * 2
        done;
        rehash t !slots
      end;
      h
    end

  let remove t k =
    let k = Flow.canonical k in
    let s =
      probe_find t
        (Ipaddr.to_int k.Flow.src_ip)
        (Ipaddr.to_int k.Flow.dst_ip)
        (proto_rank k.Flow.proto) k.Flow.src_port k.Flow.dst_port
    in
    if s = -1 then false
    else begin
      let h = t.idx.(s) in
      (* Mirror removal must precede the free: its comparator reads the
         row bytes, which the free invalidates. *)
      Omap.remove t.mirror h;
      Arena.free t.arena h;
      t.idx.(s) <- -1;
      t.count <- t.count - 1;
      t.tombs <- t.tombs + 1;
      true
    end

  let matching t filter =
    match Filter.exact_key filter with
    | Some key ->
      let h = find t key in
      if h = Arena.null then [] else [ (key_of t h, h) ]
    | None ->
      Omap.fold_desc
        (fun h () acc ->
          let k = key_of t h in
          if Filter.matches_flow filter k then (k, h) :: acc else acc)
        t.mirror []
end

module Per_host = struct
  type 'a t = {
    table : (Ipaddr.t, 'a) Hashtbl.t;
    sorted : (Ipaddr.t, 'a) Omap.t;
  }

  let create () =
    { table = Hashtbl.create 64; sorted = Omap.create ~cmp:Ipaddr.compare }

  let find t ip = Hashtbl.find_opt t.table ip

  let set t ip v =
    Hashtbl.replace t.table ip v;
    Omap.set t.sorted ip v

  let remove t ip =
    Hashtbl.remove t.table ip;
    Omap.remove t.sorted ip

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
    | Some None, Some None -> None (* unconstrained: full walk *)
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
            Option.map (fun v -> (ip, v)) (Hashtbl.find_opt t.table ip)
          else None)
        hosts
    | None ->
      Omap.fold_desc
        (fun ip v acc ->
          if Filter.matches_host filter ip then (ip, v) :: acc else acc)
        t.sorted []

  let fold t ~init ~f = Hashtbl.fold (fun k v acc -> f k v acc) t.table init
  let size t = Hashtbl.length t.table
end

module Keyed = struct
  type ('k, 'a) t = {
    table : ('k, 'a) Hashtbl.t;
    relevant : Filter.t -> 'k -> 'a -> bool;
    sorted : ('k, 'a) Omap.t;
  }

  (* Enumeration follows the polymorphic ordering, as the seed's
     [List.sort compare] did. *)
  let create ~relevant () =
    {
      table = Hashtbl.create 64;
      relevant;
      sorted = Omap.create ~cmp:Stdlib.compare;
    }

  let find t k = Hashtbl.find_opt t.table k

  let set t k v =
    Hashtbl.replace t.table k v;
    Omap.set t.sorted k v

  let remove t k =
    Hashtbl.remove t.table k;
    Omap.remove t.sorted k

  let matching t filter =
    Omap.fold_desc
      (fun k v acc -> if t.relevant filter k v then (k, v) :: acc else acc)
      t.sorted []

  let fold t ~init ~f = Hashtbl.fold (fun k v acc -> f k v acc) t.table init
  let size t = Hashtbl.length t.table
end
