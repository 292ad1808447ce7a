let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let fnv1a64_sub s ~pos ~len =
  let h = ref fnv_offset in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code s.[i]));
    h := Int64.mul !h fnv_prime
  done;
  !h

let fnv1a64 s = fnv1a64_sub s ~pos:0 ~len:(String.length s)

let[@inline] combine a b =
  let h = Int64.logxor a (Int64.add b 0x9E3779B97F4A7C15L) in
  Int64.mul (Int64.logxor h (Int64.shift_right_logical h 29)) fnv_prime

(* [combine] and [fold5] are inlined into the two exported folds, so the
   running hash stays an unboxed register: the only boxed value is [g],
   which callers pass as a constant or an already-boxed digest. *)
let[@inline] fold5 a b c d e =
  let h = combine (Int64.of_int a) (Int64.of_int b) in
  let h = combine h (Int64.of_int c) in
  let h = combine h (Int64.of_int d) in
  combine h (Int64.of_int e)

let[@inline] to_table_hash h = Int64.to_int h land max_int
let combine5 a b c d e = to_table_hash (fold5 a b c d e)

let combine7 a b c d e f g =
  to_table_hash (combine (combine (fold5 a b c d e) (Int64.of_int f)) g)

module Digest_sig = struct
  type t = { mutable h : int64; mutable count : int }

  let create () = { h = fnv_offset; count = 0 }

  let feed t s =
    let h = ref t.h in
    for i = 0 to String.length s - 1 do
      h := Int64.logxor !h (Int64.of_int (Char.code s.[i]));
      h := Int64.mul !h fnv_prime
    done;
    t.h <- !h;
    t.count <- t.count + String.length s

  let value t = combine t.h (Int64.of_int t.count)

  let export t = (t.h, t.count)
  let restore (h, count) = { h; count }
end
