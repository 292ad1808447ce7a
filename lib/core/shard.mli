(** Sharded control plane: flowspace partition and cross-shard admission.

    The flowspace is partitioned by a deterministic hash of the
    canonical 5-tuple into [shards] slices; each slice is owned by one
    {!Controller} instance with its own switch connection, inbox CPU,
    rule-cookie stripe and {!Sched} admission queue. All shards live in
    the same simulation engine, so a sharded fabric is one coherent
    virtual-time run — parallelism shows up as overlapped controller CPU
    in virtual time, and with [shards = 1] every event is bit-identical
    to the unsharded control plane.

    Operations whose footprint stays within one shard are admitted by
    that shard's scheduler exactly as before. An operation spanning two
    (or more) shards — a move whose source and destination live on
    different shards — is admitted by a handshake that acquires the
    footprint on every involved scheduler in ascending shard-id order,
    runs the unchanged operation code (controller home-routing sends
    each southbound call to the owning shard), and releases in reverse
    order. Ascending acquisition order makes the handshake deadlock-free. *)

open Opennf_net

(** {1 Partition} *)

val of_key : shards:int -> Flow.key -> int
(** Owning shard of a flow key: FNV-1a of the canonical 5-tuple mod
    [shards]. Both directions of a connection map to the same shard;
    [shards <= 1] always yields 0. *)

val of_name : shards:int -> string -> int
(** Default home shard for an NF, hashed from its name. *)

val of_filter : shards:int -> Filter.t -> int option
(** Owning shard when the filter pins an exact connection; [None] for
    wildcard filters (which may span shards). *)

(** {1 Shard groups} *)

type t
(** A group of shard controllers and their schedulers, index = shard id. *)

val make : Controller.t array -> Sched.t array -> t
(** The controllers must have been created with matching
    [?shard]/[?shards] arguments and already introduced to each other
    via {!Controller.set_group}. Registers the ["shard.cross_ops"]
    counter only when the group has more than one member. *)

val count : t -> int
val ctrl : t -> int -> Controller.t
val sched : t -> int -> Sched.t

val home : t -> Controller.nf -> int
(** The shard owning an NF (where it was attached). *)

val cross_shard_ops : t -> int
(** Operations admitted through the multi-shard handshake so far. *)

val messages_handled : t -> int
(** Sum of {!Controller.messages_handled} across the group. *)

(** {1 Admission} *)

val submit :
  t -> footprint:Sched.Footprint.t -> nfs:Controller.nf list ->
  (unit -> 'a) -> 'a Opennf_sim.Proc.Ivar.t
(** Admit [body] under [footprint] on the home shards of [nfs]. One
    home shard: plain {!Sched.submit} there. Several: the cross-shard
    handshake described above. *)

val run :
  t -> footprint:Sched.Footprint.t -> nfs:Controller.nf list ->
  (unit -> 'a) -> 'a
(** {!submit} and block for the result. *)

val release_flow :
  t -> footprint:Sched.Footprint.t -> nfs:Controller.nf list ->
  Flow.key -> unit
(** Early-release [key] from a held footprint on every involved
    scheduler (the per-flow pipelining of §5.1.3, shard-aware). *)

(** {1 Long-lived holds}

    Used by {!Share}, whose strong-consistency locks outlive a single
    admission body. *)

type hold

val acquire :
  t -> footprint:Sched.Footprint.t -> nfs:Controller.nf list -> hold
(** Block until the footprint is admitted on every involved shard
    (ascending order), then keep holding it. *)

val release_hold : hold -> unit
(** Release on every shard, reverse acquisition order. *)
