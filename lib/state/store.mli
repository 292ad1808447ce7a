(** Keyed in-memory stores NFs build their state on.

    These are plain hash tables with filter-aware enumeration, so that
    NF implementations of [get*] can answer "all state pertaining to
    flows matching this filter" without bespoke lookup code. They impose
    no structure on the values — the NF keeps whatever objects it likes,
    which is the point of the southbound API design (§4.2). *)

open Opennf_net

module Perflow : sig
  type 'a t
  (** Connection-scoped state, keyed by the canonical 5-tuple. *)

  val create : unit -> 'a t
  val find : 'a t -> Flow.key -> 'a option
  (** Keys are canonicalized: both directions find the same entry. *)

  val set : 'a t -> Flow.key -> 'a -> unit
  val remove : 'a t -> Flow.key -> unit
  val mem : 'a t -> Flow.key -> bool
  val matching : 'a t -> Filter.t -> (Flow.key * 'a) list
  (** Entries whose connection matches the filter (either direction),
      in ascending [Flow.compare] order of their canonical keys, each
      listed once.

      An exact 5-tuple filter is a single hash probe. Any other filter
      folds the whole table, keeps the matches and sorts those: there
      is no per-host index, so [set] and [remove] touch only the table.

      Limit: a host- or prefix-scoped get is a scan of the store, O(n)
      in its size (about 70 µs at 2k entries, 0.34 ms at 10k and 6 ms
      at 100k on one core of a 2-vCPU Intel Xeon VM). Only the IDS
      and proxy NFs keep state here, and no experiment or workload
      gives one more than a few thousand flows; the [datapath] bench's
      million-key store is only ever probed by exact key. State that
      grows to millions of flows and is enumerated by scope belongs in
      {!Perflow_arena}. *)

  val fold : 'a t -> init:'b -> f:(Flow.key -> 'a -> 'b -> 'b) -> 'b
  val size : 'a t -> int
end

module Perflow_arena : sig
  type t
  (** Connection-scoped state in flat memory: rows of a fixed-stride
      {!Opennf_util.Arena} slab, addressed by integer handles. Same
      canonical-key semantics as {!Perflow}, but the GC never traverses
      the resident state — the marking cost of a million live flows is
      a handful of byte slabs, not millions of boxed records. Point
      lookups probe a flat open-addressing int array, and that index
      and the slabs are all the store holds, so insert and remove leave
      no per-row node on the OCaml heap.

      Each index slot is one int packing the row index with a 29-bit
      tag of the key's hash, so a probe reads a row only when the tags
      agree — straight from the slot's row index, comparing the key as
      two 64-bit words ({!Opennf_net.Key_row}) — and growing the index
      reads no rows at all. Limit: the index keeps
      its slot count below 2{^29} (at most 2{^28} slots, kept at most
      half full: 2{^27} live flows); an insert that would grow it past
      that raises [Invalid_argument].
      Ordered enumeration sorts on query (see {!matching}). *)

  val payload_off : int
  (** Byte offset where the caller's payload fields start (16; the key
      plus padding, so 8-byte payload fields sit aligned). *)

  val create : payload:int -> unit -> t
  (** [create ~payload ()]: a store whose rows carry [payload] bytes of
      caller-defined fields after the key. *)

  val arena : t -> Opennf_util.Arena.t
  (** The underlying arena, for payload access: validate a handle once
      with [Arena.index], then read and write the row in place at
      [Arena.offset] in [Arena.slab]. Payload fields sit at
      [payload_off] plus their own offset; the row's first 16 bytes are
      the key head, which callers only read. *)

  val find : t -> Flow.key -> Opennf_util.Arena.handle
  (** Allocation-free lookup: the live handle {!insert} returned for
      the key, or {!Opennf_util.Arena.null} when absent. Keys are
      canonicalized, as in {!Perflow.find}, but field by field: a
      reply-direction key builds no reversed record. The probe
      compares index tags and reads a row only on a tag match: short
      of a 29-bit tag collision, the key's own row and no other. A
      handle is built for the matching row only. *)

  val insert : t -> Flow.key -> Opennf_util.Arena.handle
  (** The existing handle for the (canonicalized) key, or a fresh
      zero-payload row with the key written (the handle
      {!Opennf_util.Arena.alloc} issued for it). {!size} tells the two
      apart. Inserting a key already present allocates nothing. *)

  val remove : t -> Flow.key -> bool
  (** Frees the row; any retained handle becomes stale (every arena
      accessor will reject it). Returns whether the key was present. *)

  val key_of : t -> Opennf_util.Arena.handle -> Flow.key

  val matching : t -> Filter.t -> (Flow.key * Opennf_util.Arena.handle) list
  (** Entries matching the filter, in ascending [Flow.compare] order of
      their canonical keys. Exact 5-tuple filters are a single probe.
      Anything else scans the live rows, keeps the matches with their
      keys packed into two unboxed ints, and sorts only those (a linear
      check when they already are in order, as rows inserted in key
      order are). The match buffer is allocated once per scan, sized
      for every live row (three words a row), so it never regrows. As
      on {!Perflow}, there is no per-host index: scoped selection is
      enumeration, not indexed lookup. *)

  val size : t -> int
end

module Per_host : sig
  type 'a t
  (** Host-scoped multi-flow state (e.g. per-host scan counters), in a
      monomorphic table keyed by address: a lookup hashes and compares
      ints, never through the polymorphic [Hashtbl.hash]/[compare].
      The hash is a multiplicative mix with its high bits folded down,
      not the identity, since the table indexes by the low bits and
      hosts that differ only in a high octet would otherwise share a
      bucket. *)

  val create : unit -> 'a t
  val find : 'a t -> Ipaddr.t -> 'a option
  val set : 'a t -> Ipaddr.t -> 'a -> unit
  val remove : 'a t -> Ipaddr.t -> unit

  val find_or_add : 'a t -> Ipaddr.t -> (Ipaddr.t -> 'a) -> 'a
  (** [find_or_add t ip make]: the host's value, or [make ip] stored
      under [ip] when it has none ({!size} tells the two apart). A host
      already present allocates nothing, given a [make] that is a
      closed function rather than a closure built per call. *)

  val update : 'a t -> Ipaddr.t -> default:(unit -> 'a) -> f:('a -> 'a) -> unit
  val matching : 'a t -> Filter.t -> (Ipaddr.t * 'a) list
  (** Hosts accepted by the filter's address constraints
      ([Filter.matches_host]), in ascending address order.

      Indexed: filters whose address constraints all pin single hosts
      are answered by hash probes; anything else folds the table and
      sorts the matches on query. *)

  val fold : 'a t -> init:'b -> f:(Ipaddr.t -> 'a -> 'b -> 'b) -> 'b
  val size : 'a t -> int
end

module Keyed : sig
  type ('k, 'a) t
  (** Generic store for NF-specific keys (e.g. URLs in a cache) with a
      caller-supplied relevance test for filters. *)

  val create : relevant:(Filter.t -> 'k -> 'a -> bool) -> unit -> ('k, 'a) t

  val find : ('k, 'a) t -> 'k -> 'a option
  val set : ('k, 'a) t -> 'k -> 'a -> unit
  val remove : ('k, 'a) t -> 'k -> unit

  val matching : ('k, 'a) t -> Filter.t -> ('k * 'a) list
  (** Relevant entries in ascending key order (the polymorphic
      [compare]): the table is folded and the matches sorted on
      query. *)

  val fold : ('k, 'a) t -> init:'b -> f:('k -> 'a -> 'b -> 'b) -> 'b
  val size : ('k, 'a) t -> int
end
