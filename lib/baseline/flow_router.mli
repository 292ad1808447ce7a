(** A per-flow SDN load balancer with sticky routing — the
    "scaling without re-balancing active flows" baseline (§2.2, §8.4).

    The default switch rule sends unmatched packets to the controller;
    at the first packet of each connection the [policy] picks an
    instance and an exact-match rule pins the whole connection there.
    Changing the policy (scale-out) affects only {e new} flows, so an
    overloaded instance stays overloaded until its flows end, and
    scale-in must wait for the last pinned flow to finish. *)

open Opennf_net
open Opennf

type t

val start :
  Controller.t -> policy:(Packet.t -> Controller.nf) -> ?filter:Filter.t ->
  unit -> t
(** Blocking (installs the punt rule). [filter] limits which traffic the
    router manages (default all). *)

val set_policy : t -> (Packet.t -> Controller.nf) -> unit
(** Applies to new flows only — that is the point of this baseline. *)

val pinned_on : t -> Controller.nf -> int
