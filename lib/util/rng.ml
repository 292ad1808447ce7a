(* The splitmix64 state lives unboxed in 8 bytes: a [mutable int64]
   field would box a fresh Int64 on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let[@inline] bits64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = Int64.to_int (bits64 t) in
  create ~seed

let int t n =
  assert (n > 0);
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  (* [v >= 0], so a power-of-two [n] needs no division. *)
  if n land (n - 1) = 0 then v land (n - 1) else v mod n

let float t x =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bits /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let pareto t ~shape ~scale =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  scale /. (u ** (1.0 /. shape))

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
