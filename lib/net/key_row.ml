let rank = function Flow.Tcp -> 0 | Flow.Udp -> 1 | Flow.Icmp -> 2
let protos = [| Flow.Tcp; Flow.Udp; Flow.Icmp |]
let proto_of_rank r = protos.(r)
let word1 pr sp dp = pr lor (sp lsl 8) lor (dp lsl 24)
let key_bytes_mask = (1 lsl 40) - 1

let[@inline] mix h v = (h lxor v) * 0x2545F4914F6CDD1D

let hash src dst pr sp dp =
  let h = mix (mix (mix (mix (mix 0x9E3779B9 src) dst) pr) sp) dp in
  (h lxor (h lsr 29)) land max_int

(* [src] and [dst] are below 2^32, so the shifted [dst] fills the top
   half of the 64-bit word exactly. *)
let[@inline] word0 src dst =
  Int64.logor (Int64.of_int src) (Int64.shift_left (Int64.of_int dst) 32)

let write b off src dst w1 =
  Bytes.set_int64_le b off (word0 src dst);
  Bytes.set_int64_le b (off + 8) (Int64.of_int w1)

let[@inline] u32 b off =
  Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + 2) lsl 16)

let hash_at b off =
  hash (u32 b off) (u32 b (off + 4))
    (Bytes.get_uint8 b (off + 8))
    (Bytes.get_uint16_le b (off + 9))
    (Bytes.get_uint16_le b (off + 11))

(* [=] at type [int64] compiles to an unboxed compare. *)
let matches b off src dst w1 =
  (Bytes.get_int64_le b off : int64) = word0 src dst
  && Int64.to_int (Bytes.get_int64_le b (off + 8)) land key_bytes_mask = w1
