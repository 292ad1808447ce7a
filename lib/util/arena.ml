(* Flat-memory slab arena: fixed-stride rows in Bytes chunks, addressed
   by integer handles. The point is what the GC does NOT see — a
   million live rows are a few hundred byte slabs plus int arrays,
   so major-heap marking cost stays flat however much per-flow state an
   NF holds. Boxed record stores are the thing this replaces: at 1M
   flows those put tens of millions of pointered words in front of
   every collection.

   Handles are generation-stamped (the pattern proven by Lz's
   match-finder table): a handle packs (generation << 32 | row index),
   every alloc/free bumps the row's generation, and [index] and each
   typed accessor validate the stamp — so a handle kept across a free
   (or across a free-list reuse of the row) raises instead of silently
   reading someone else's row. A hot path validates once per row with
   [index] and then works on the row's bytes in place. Live rows always
   carry an odd generation, which also rejects forged or [null] handles
   against never-used rows.

   Freed rows are threaded onto a free list through their own first 8
   bytes (hence the stride >= 8 requirement) — freeing costs no
   allocation, and reuse pops in LIFO order, deterministically. *)

type handle = int

let null : handle = 0

(* Row index lives in the low 32 bits; generation in the bits above.
   Generations wrap modulo 2^30 (parity-preserving, so live stays odd). *)
let idx_bits = 32
let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = (1 lsl 30) - 1

(* 2,048 rows per slab. A store pays for its first slab at its first
   row, so the slab size is what a small store costs: a few hundred
   flows (one NF of a move, a standby's sent keys, a switch's exact
   rules) hold 2,048 rows and 2,048 generation words, not 32k of each.
   A million rows are ~500 slabs, still a spine the GC scans in
   microseconds. Addressing stays one shift and one mask, and growth
   adds a slab without copying a row; only the spine of slab pointers
   is copied, and it doubles, so that copy is amortized O(1) too. *)
let slab_bits = 11
let slab_rows = 1 lsl slab_bits
let slab_mask = slab_rows - 1

type t = {
  stride : int;
  mutable slabs : Bytes.t array; (* the first [nslabs] are in use *)
  mutable gens : int array array; (* per-slab generation stamps *)
  mutable nslabs : int;
  mutable free_head : int; (* row index; -1 = empty *)
  mutable next_fresh : int; (* first never-allocated row *)
  mutable live : int;
}

let create ~stride () =
  if stride < 8 then invalid_arg "Arena.create: stride must be >= 8";
  {
    stride;
    slabs = [||];
    gens = [||];
    nslabs = 0;
    free_head = -1;
    next_fresh = 0;
    live = 0;
  }

let stride t = t.stride
let live t = t.live
let capacity t = t.nslabs * slab_rows

let stale () = invalid_arg "Arena: stale or invalid handle"

(* Validate [h] and return its row index. Live handles carry the odd
   generation currently stamped on their row; anything else raises. *)
let[@inline] idx_of t h =
  let g = h lsr idx_bits in
  let idx = h land idx_mask in
  let s = idx lsr slab_bits in
  if
    g land 1 = 0
    || s >= t.nslabs
    || Array.unsafe_get (Array.unsafe_get t.gens s) (idx land slab_mask) <> g
  then stale ();
  idx

let is_live t h =
  let g = h lsr idx_bits in
  let idx = h land idx_mask in
  let s = idx lsr slab_bits in
  g land 1 = 1
  && s < t.nslabs
  && t.gens.(s).(idx land slab_mask) = g

let index t h = idx_of t h

(* The generation stamped on the row is the whole handle, less the
   index: odd when live, even when freed or never used. *)
let handle_at t idx =
  let s = idx lsr slab_bits in
  if idx < 0 || s >= t.nslabs then null
  else
    let g = Array.unsafe_get (Array.unsafe_get t.gens s) (idx land slab_mask) in
    if g land 1 = 0 then null else (g lsl idx_bits) lor idx

let add_slab t =
  let n = t.nslabs in
  if n = Array.length t.slabs then begin
    let cap = max 1 (2 * n) in
    let slabs = Array.make cap Bytes.empty in
    Array.blit t.slabs 0 slabs 0 n;
    t.slabs <- slabs;
    let gens = Array.make cap [||] in
    Array.blit t.gens 0 gens 0 n;
    t.gens <- gens
  end;
  t.slabs.(n) <- Bytes.create (slab_rows * t.stride);
  t.gens.(n) <- Array.make slab_rows 0;
  t.nslabs <- n + 1

let alloc t =
  let idx =
    if t.free_head >= 0 then begin
      let idx = t.free_head in
      let b = t.slabs.(idx lsr slab_bits) in
      t.free_head <-
        Int64.to_int (Bytes.get_int64_le b ((idx land slab_mask) * t.stride));
      idx
    end
    else begin
      if t.next_fresh = capacity t then add_slab t;
      let idx = t.next_fresh in
      t.next_fresh <- idx + 1;
      idx
    end
  in
  let s = idx lsr slab_bits and r = idx land slab_mask in
  let g = (t.gens.(s).(r) + 1) land gen_mask in
  t.gens.(s).(r) <- g;
  (* Rows are handed out zeroed, so equivalence between an arena-backed
     store and a boxed reference cannot depend on stale bytes. *)
  Bytes.fill t.slabs.(s) (r * t.stride) t.stride '\000';
  t.live <- t.live + 1;
  (g lsl idx_bits) lor idx

let free t h =
  let idx = idx_of t h in
  let s = idx lsr slab_bits and r = idx land slab_mask in
  t.gens.(s).(r) <- (t.gens.(s).(r) + 1) land gen_mask;
  Bytes.set_int64_le t.slabs.(s) (r * t.stride) (Int64.of_int t.free_head);
  t.free_head <- idx;
  t.live <- t.live - 1

(* Row locator: no liveness check. A caller validates a handle once
   with [index] (or knows the row is live, as an index entry does) and
   then reads and writes the row's bytes in place. *)
let slab t idx = t.slabs.(idx lsr slab_bits)
let offset t idx = (idx land slab_mask) * t.stride

(* --- typed field accessors ----------------------------------------------

   Each accessor validates the handle and addresses [off] bytes into the
   row. They compose 16-bit loads/stores so no Int32/Int64 box is
   allocated. A hot path that touches several fields of one row uses
   the locator above instead. *)

let[@inline] addr t idx off = ((idx land slab_mask) * t.stride) + off

let get_u8 t h off =
  let idx = idx_of t h in
  Bytes.get_uint8 t.slabs.(idx lsr slab_bits) (addr t idx off)

let set_u8 t h off v =
  let idx = idx_of t h in
  Bytes.set_uint8 t.slabs.(idx lsr slab_bits) (addr t idx off) v

let get_u16 t h off =
  let idx = idx_of t h in
  Bytes.get_uint16_le t.slabs.(idx lsr slab_bits) (addr t idx off)

let set_u16 t h off v =
  let idx = idx_of t h in
  Bytes.set_uint16_le t.slabs.(idx lsr slab_bits) (addr t idx off) (v land 0xFFFF)

let get_u32 t h off =
  let idx = idx_of t h in
  let b = t.slabs.(idx lsr slab_bits) in
  let p = addr t idx off in
  Bytes.get_uint16_le b p lor (Bytes.get_uint16_le b (p + 2) lsl 16)

(* Full-width OCaml int (63-bit): arithmetic shifts sign-extend on the
   way out exactly as the truncated top bits demand, mirroring
   [Bytes_io]'s box-free int codec. *)
let get_int t h off =
  let idx = idx_of t h in
  let b = t.slabs.(idx lsr slab_bits) in
  let p = addr t idx off in
  Bytes.get_uint16_le b p
  lor (Bytes.get_uint16_le b (p + 2) lsl 16)
  lor (Bytes.get_uint16_le b (p + 4) lsl 32)
  lor (Bytes.get_uint16_le b (p + 6) lsl 48)

let set_int t h off v =
  let idx = idx_of t h in
  let b = t.slabs.(idx lsr slab_bits) in
  let p = addr t idx off in
  Bytes.set_uint16_le b p (v land 0xFFFF);
  Bytes.set_uint16_le b (p + 2) ((v asr 16) land 0xFFFF);
  Bytes.set_uint16_le b (p + 4) ((v asr 32) land 0xFFFF);
  Bytes.set_uint16_le b (p + 6) ((v asr 48) land 0xFFFF)

(* Live rows in ascending row-index order (deterministic, independent
   of free-list history). A row is live exactly when its generation is
   odd, so the scan itself is the validation: each row is handed out
   once, with its slab and byte offset, for reads that need no
   further check. Rows from [next_fresh] on were never used, so the
   scan stops there. *)
let iter_rows t f =
  for s = 0 to t.nslabs - 1 do
    let gens = t.gens.(s) and slab = t.slabs.(s) in
    for r = 0 to min slab_mask (t.next_fresh - 1 - (s lsl slab_bits)) do
      let g = gens.(r) in
      if g land 1 = 1 then
        f ((g lsl idx_bits) lor ((s lsl slab_bits) lor r)) slab (r * t.stride)
    done
  done
