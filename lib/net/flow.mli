(** Flow identification: 5-tuples and direction handling. *)

type proto = Tcp | Udp | Icmp

val proto_to_string : proto -> string

type key = {
  src_ip : Ipaddr.t;
  dst_ip : Ipaddr.t;
  proto : proto;
  src_port : int;
  dst_port : int;
}
(** A directed 5-tuple: the header of one packet. Both directions of a
    connection have mirrored keys; use [canonical] when indexing
    connection-scoped state. *)

val make :
  src:Ipaddr.t -> dst:Ipaddr.t -> ?proto:proto -> sport:int -> dport:int ->
  unit -> key

val reverse : key -> key

val canonical : key -> key
(** Direction-independent representative: the lexicographically smaller
    of [k] and [reverse k]. [canonical k = canonical (reverse k)]. *)

val is_canonical : key -> bool
(** [canonical k == k]: [k] is its connection's representative
    direction. Decided on the fields, with no reversed key built. A key
    equal to its own reverse is canonical. *)

val compare : key -> key -> int
val equal : key -> key -> bool
val hash : key -> int
val pp : Format.formatter -> key -> unit
val to_string : key -> string

module Map : Map.S with type key = key
module Set : Set.S with type elt = key
module Table : Hashtbl.S with type key = key
