(** The northbound [share] operation (§5.2.2).

    Keeps state for a set of flows consistent across several instances
    by serializing reads/updates through the controller:

    - {b Strong}: events (action [drop]) are enabled on every instance;
      each triggering packet is queued per flow-group, re-injected with
      "do-not-drop" to its originating instance, and — once the instance
      signals completion by raising the processed event — the updated
      state is fetched and pushed to all other instances before the next
      packet of that group is handled. Updates happen in a global order
      per group, but that order may differ from switch arrival order.
    - {b Strict}: forwarding entries for the filter are redirected to
      the controller, which therefore observes the exact switch arrival
      order and replays packets one at a time to the first instance;
      synchronization proceeds as for [Strong].

    Flows are grouped by source host, the paper's running example
    (per-host connection counters). Stop a share with {!stop}.

    A share degrades rather than wedges when an instance dies: waits for
    completion events are bounded by the controller's resilience policy,
    failed gets skip the sync round, and failed puts to one replica do
    not stop propagation to the others. *)

open Opennf_net
open Opennf_state
module Proc = Opennf_sim.Proc

type consistency = Strong | Strict

type t
(** A live share. *)

type stats = {
  updates_synced : int;  (** get+put rounds completed. *)
  packets_serialized : int;
}

val footprint :
  instances:Controller.nf list ->
  filter:Filter.t ->
  consistency:consistency ->
  Sched.Footprint.t
(** What a share holds for its lifetime: every instance written, the
    filter's flows covered; strict mode also owns forwarding state. *)

val start :
  Controller.t ->
  ?shard_group:Shard.t ->
  instances:Controller.nf list ->
  filter:Filter.t ->
  ?scope:Scope.t list ->
  consistency:consistency ->
  unit ->
  (t, Op_error.t) result
(** Blocking (performs the initial state synchronization). [scope]
    defaults to [[Multi]]. An empty instance list is
    [Error (Bad_spec _)]. With [shard_group], the share's {!footprint}
    is acquired before any setup on every shard the instances live on
    (ascending shard-id order) and held until {!stop}, so conflicting
    operations queue behind it. *)

val stats : t -> stats

val stop : t -> unit
(** Blocking: disable events, drop subscriptions and (for strict) stop
    diverting packets to the controller. Queued packets are flushed
    first. *)
