(** Header filters.

    A filter is a dictionary of standard header fields, like an OpenFlow
    match: unspecified fields are wildcards (§4.2 of the paper). Filters
    are used in three roles:

    - selecting which NF state to export/import (southbound get/put),
    - selecting which packets raise events (enableEvents),
    - matching packets in switch flow tables.

    The same type also represents southbound {e flowids}: a flowid is a
    filter whose present fields exactly describe the flow (full 5-tuple)
    or flow aggregate (e.g. only a host address) the state pertains to. *)

type t = {
  src : Ipaddr.Prefix.t option;
  dst : Ipaddr.Prefix.t option;
  proto : Flow.proto option;
  src_port : int option;
  dst_port : int option;
  tcp_flag : Packet.tcp_flag option;
      (** When set, matches only packets carrying this TCP flag (used by
          [notify] for SYN/RST triggers). Ignored for state selection. *)
  app : string option;
      (** Application-layer selector — the paper's footnote 6 extended
          filter fields (e.g. an HTTP URL for the Squid proxy). Only
          compared between filters and flowids; packet matching ignores
          it. *)
}

val any : t
(** Matches everything. *)

val make :
  ?src:Ipaddr.Prefix.t ->
  ?dst:Ipaddr.Prefix.t ->
  ?proto:Flow.proto ->
  ?src_port:int ->
  ?dst_port:int ->
  ?tcp_flag:Packet.tcp_flag ->
  unit ->
  t

val of_key : Flow.key -> t
(** Exact 5-tuple filter (or per-flow flowid). *)

val of_src_prefix : Ipaddr.Prefix.t -> t
val of_src_host : Ipaddr.t -> t
val of_dst_host : Ipaddr.t -> t
val of_app : string -> t
(** Flowid naming application-layer state (e.g. one cached URL). *)

val mirror : t -> t
(** Swap source and destination constraints. *)

val is_symmetric : t -> bool
(** [mirror t = t]. *)

val matches_packet : t -> Packet.t -> bool
(** Directed header match, including the TCP-flag constraint. This is
    the flow-table / event-trigger semantics. *)

val matches_key : t -> Flow.key -> bool
(** Directed 5-tuple match (flag constraint ignored). *)

val matches_flow : t -> Flow.key -> bool
(** Connection-level match: the key or its reverse matches. This is the
    state-selection semantics: state for a connection is exported if the
    filter matches either direction. *)

val matches_conn :
  t -> src:Ipaddr.t -> dst:Ipaddr.t -> proto:Flow.proto -> sport:int ->
  dport:int -> bool
(** {!matches_flow} on the key's fields, for callers that hold them
    unboxed (e.g. read out of an arena row): no key record is built. *)

val matches_host : t -> Ipaddr.t -> bool
(** True if the address satisfies the filter's src or dst constraint
    (used for host-scoped multi-flow state; per §4.2 only fields relevant
    to the state are considered, so port/proto constraints are ignored). *)

val accepts_flowid : t -> t -> bool
(** [accepts_flowid filter flowid]: would state labelled [flowid] be
    selected by [filter]? Only fields present in both are compared;
    direction-insensitive. *)

val overlaps : t -> t -> bool
(** [overlaps a b]: could some flow match both filters (in either
    direction)? Conservative: [tcp_flag] and [app] constraints are
    ignored, so a [true] may be spurious but a [false] is definite.
    Used by the operation scheduler to detect footprint conflicts. *)

val exact_key : t -> Flow.key option
(** When the filter pins a full 5-tuple (/32 prefixes, both ports and
    the protocol), the corresponding flow key. Used to interpret
    per-flow flowids. *)

val exact_src_host : t -> Ipaddr.t option
(** The source address when pinned to a /32 (host-scoped flowids). *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Structural, field by field (wildcard sorts before any constraint).
    Agrees with {!equal}. *)

val hash : t -> int
(** Structural hash consistent with {!equal}; safe for keying the
    controller's route tables. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Hashed : Hashtbl.HashedType with type t = t
module Table : Hashtbl.S with type key = t
