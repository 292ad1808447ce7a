(** Binary writer/reader for the state codec.

    Little-endian fixed-width integers plus length-prefixed strings. The
    reader raises [Decode_error] (never [Invalid_argument]) on malformed
    input so callers can distinguish protocol errors from bugs. *)

exception Decode_error of string

module Writer : sig
  type t

  val create : unit -> t

  val with_scratch : (t -> 'a) -> 'a
  (** Run [f] with a cleared, reusable writer — the allocation-light
      path for high-rate encodes. The writer is one module-level buffer
      (lib/ runs on one domain), only valid during [f]; take [contents]
      before returning. Nested calls fall back to a fresh writer. *)

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val i64 : t -> int64 -> unit
  val int : t -> int -> unit
  (** Full OCaml int, stored as 64 bits. *)

  val f64 : t -> float -> unit
  val bool : t -> bool -> unit
  val string : t -> string -> unit
  (** u32 length prefix + bytes. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** u32 count prefix, then each element via the callback. *)

  val contents : t -> string
  val length : t -> int
end

module Reader : sig
  type t

  val of_string : string -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val int : t -> int
  val f64 : t -> float
  val bool : t -> bool
  val string : t -> string
  val list : t -> (unit -> 'a) -> 'a list
  val at_end : t -> bool
end
