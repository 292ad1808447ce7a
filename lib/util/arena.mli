(** Flat-memory slab arena: fixed-stride unboxed rows, int handles.

    Rows live in [Bytes] slabs the GC never traverses, so holding a
    million rows adds nothing to marking cost. Handles are
    generation-stamped: {!index} and every typed accessor validate their
    handle and raise [Invalid_argument] on a handle that was freed (or
    whose row was reused off the free list) — dangling state is an
    error, never a silent misread. A caller that touches several fields
    validates once with {!index} and then works on the row's bytes in
    place ({!slab}, {!offset}). *)

type handle = int
(** Packed (generation, row index). Treat as opaque; [null] and any
    freed handle are rejected by every accessor. *)

val null : handle
(** A handle no arena ever issues; useful as an "absent" sentinel in
    unboxed contexts where [option] would allocate. *)

type t

val create : stride:int -> unit -> t
(** [create ~stride ()] makes an arena of [stride]-byte rows
    ([stride >= 8]; the free list is threaded through the first 8 bytes
    of freed rows). *)

val stride : t -> int

val alloc : t -> handle
(** Claim a row (zero-filled), reusing the most recently freed row
    first. O(1) amortized; growth adds a 2,048-row slab, never copies
    row storage. The first row allocates the first slab, so an arena
    holding a few rows costs one slab of [2048 * stride] bytes and
    2,048 generation words. *)

val free : t -> handle -> unit
(** Return a row to the free list. The handle (and any copy of it)
    becomes invalid immediately. *)

val is_live : t -> handle -> bool

val index : t -> handle -> int
(** The row index of a live handle (dense, from 0, below
    {!capacity}); raises [Invalid_argument] on a stale handle. *)

val handle_at : t -> int -> handle
(** The live handle of row [i] (the one {!alloc} issued for its
    current tenant), or {!null} when the row is freed, never used or
    out of range. Reads the row's generation, never the row. *)

val live : t -> int
val capacity : t -> int

(** {1 Rows in place}

    A caller validates a handle once ({!index}), then reads and writes
    the row's [stride] bytes at [offset t i] in [slab t i] — one check
    per row, not one per field. Neither function checks liveness. *)

val slab : t -> int -> Bytes.t
(** The slab holding row [i] (below {!capacity}). *)

val offset : t -> int -> int
(** Row [i]'s byte offset within its slab. *)

val iter_rows : t -> (handle -> Bytes.t -> int -> unit) -> unit
(** [iter_rows t f] calls [f h slab off] for each live row, in
    ascending row-index order (deterministic, independent of
    allocation/free history): [h] is its handle and its [stride] bytes
    sit at [off] in [slab]. The scan checks liveness once per row, so
    [f] reads the row's fields with no per-field validation. [f] must
    not alloc or free, nor keep [slab]. *)

(** {1 Typed field accessors}

    One validated, box-free read or write of one field: [off] is a byte
    offset within the row; the caller owns the layout. *)

val get_u8 : t -> handle -> int -> int
val set_u8 : t -> handle -> int -> int -> unit
val get_u16 : t -> handle -> int -> int
val set_u16 : t -> handle -> int -> int -> unit
val get_u32 : t -> handle -> int -> int

val get_int : t -> handle -> int -> int
(** Full 63-bit OCaml int in 8 bytes (sign-extended to 64 bits, as
    [Int64.of_int] writes it). *)

val set_int : t -> handle -> int -> int -> unit
