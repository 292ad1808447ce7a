(** "Moved away" markers on an NF: the flowids a [Del_perflow] removed,
    so packets for a relocated flow are dropped instead of re-creating
    its state, until an import of that flow's state clears them.

    Exact per-flow flowids, the common case, sit in a table keyed by
    canonical 5-tuple, so the per-packet check is one probe however
    many flows moved away; any other flowid stays in a list. Adding a
    marker is a cons: the next query files the new markers. *)

open Opennf_net

type t

val create : unit -> t

val add : t -> Filter.t -> unit
(** Mark the flowid as moved away. *)

val matches : t -> Flow.key -> bool
(** Some marker's flowid matches the connection, in either direction
    ({!Filter.matches_flow}). *)

val clear_for : t -> Filter.t -> unit
(** Drop every marker whose flowid accepts the imported flowid
    ({!Filter.accepts_flowid} with the marker as the filter). *)
