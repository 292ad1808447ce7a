(** A 5-tuple as the 16-byte head of a flat arena row.

    The two arena indexes keyed by flow — {!Flowtable}'s exact rules and
    the NF state store ([Store.Perflow_arena]) — keep their key in this
    layout and share one hash and one compare over it:

    - word 0 (bytes 0–7, little-endian): [src lor (dst lsl 32)];
    - word 1 (bytes 8–15): [proto rank lor (sport lsl 8) lor
      (dport lsl 24)] in the low 5 bytes. Bytes 13–15 are not key: the
      store leaves them zero, the flow table keeps a flag in byte 13,
      so a compare masks them off.

    Word 0 is compared as a 64-bit value: bit 31 of [dst] is bit 63 of
    the word, beyond a 63-bit OCaml int. *)

val rank : Flow.proto -> int
(** [Tcp] 0, [Udp] 1, [Icmp] 2. *)

val proto_of_rank : int -> Flow.proto

val word1 : int -> int -> int -> int
(** [word1 rank sport dport]: the key part of word 1. *)

val hash : int -> int -> int -> int -> int -> int
(** [hash src dst rank sport dport]: a non-negative mix of the five
    fields, allocation-free. *)

val hash_at : Bytes.t -> int -> int
(** {!hash} of the key held by the row at the given offset. *)

val write : Bytes.t -> int -> int -> int -> int -> unit
(** [write b off src dst w1] stores both words at [off] ([w1] from
    {!word1}), zeroing bytes 13–15. *)

val matches : Bytes.t -> int -> int -> int -> int -> bool
(** [matches b off src dst w1]: whether the row at [off] holds the key,
    reading two 64-bit words. *)
