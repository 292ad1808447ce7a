(** Hashing and digests.

    [fnv1a*] are fast non-cryptographic hashes used for fingerprint tables
    (redundancy elimination) and hash-based sharding. [Digest_sig] is a
    64-bit rolling content digest standing in for the md5sums the Bro IDS
    computes over reassembled HTTP bodies: it is order- and
    content-sensitive, so any lost or reordered payload byte changes it. *)

val fnv1a64 : string -> int64
(** FNV-1a over the whole string. *)

val fnv1a64_sub : string -> pos:int -> len:int -> int64
(** FNV-1a over a substring. *)

val combine : int64 -> int64 -> int64
(** Mix two hashes into one (not commutative). *)

val combine5 : int -> int -> int -> int -> int -> int
(** [combine5 a b c d e] folds {!combine} left over the five ints (each
    [Int64.of_int]) and keeps the low bits as a non-negative [int], the
    form [Hashtbl.Make] wants. Allocates nothing. *)

val combine7 : int -> int -> int -> int -> int -> int -> int64 -> int
(** Like {!combine5} over six ints and a final 64-bit hash. Allocates
    nothing beyond what the caller boxes for the last argument. *)

module Digest_sig : sig
  type t
  (** Incremental digest over a byte stream. *)

  val create : unit -> t
  val feed : t -> string -> unit
  val value : t -> int64
  (** Digest of everything fed so far. *)

  val export : t -> int64 * int
  (** Internal state, for NF serialization. *)

  val restore : int64 * int -> t
  (** Inverse of [export]. *)
end
