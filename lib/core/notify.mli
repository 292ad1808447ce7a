(** The [notify] convenience (§5.2.1): lets control applications learn
    when state is being updated, by turning NF packet-received events
    into controller-side callbacks. Used by the failure-recovery
    application to re-copy state whenever a significant packet (SYN,
    RST, HTTP request) is processed. *)

open Opennf_net

type handle

val enable :
  ?shard_group:Shard.t ->
  Controller.t -> Controller.nf -> Filter.t -> (Packet.t -> unit) ->
  (handle, Op_error.t) result
(** [enable t inst filter callback]: events with action [process] are
    enabled on [inst]; the callback fires at the controller for every
    matching packet the instance processes. [Error (Nf_crashed _)] if
    the instance is already known dead. With [shard_group], the enable
    is admitted on the instance's home shard as a short read of the
    instance — it waits out conflicting writes in flight but holds no
    footprint afterwards. *)

val disable : Controller.t -> handle -> unit
