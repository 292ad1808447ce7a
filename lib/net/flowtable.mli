(** Priority flow tables (the data-plane half of the SDN switch). *)

type action =
  | Forward of string  (** Output on the port with this name. *)
  | To_controller  (** Send a packet-in to the controller. *)

type rule = {
  cookie : int;  (** Controller-chosen identity; install replaces. *)
  priority : int;
  filters : Filter.t list;  (** The rule matches if any filter matches. *)
  actions : action list;
  mutable matched : int;  (** Packets matched so far (OpenFlow counter). *)
}

type t

val create : ?engine:Opennf_sim.Engine.t -> unit -> t
(** A table created with [~engine] records ["ft.lookups"],
    ["ft.cache_hits"] and ["ft.cache_misses"] counters on the engine's
    observability hub, so its metrics land next to every other
    engine-sourced series. Without it metrics are disabled. *)

val install :
  t -> cookie:int -> priority:int -> filters:Filter.t list ->
  actions:action list -> unit
(** Atomically adds the rule, replacing any rule with the same cookie. *)

val remove : t -> cookie:int -> unit
(** No-op if absent. *)

val lookup : t -> Packet.t -> rule option
(** Highest-priority matching rule; among equal priorities the most
    recently installed wins.

    O(1) for the common case: rules pinning full 5-tuples are probed by
    hash on the packet's key, remaining (wildcard) rules are scanned by
    descending priority bucket with early exit, and the winning decision
    is memoized per flow while no installed rule constrains TCP flags.
    Install/remove invalidate memoized decisions (generation counter),
    so results are always identical to a full linear scan. *)

val find : t -> cookie:int -> rule option
val rules : t -> rule list
(** Most recently installed first. *)

val size : t -> int

val cache_stats : t -> int * int
(** [(hits, misses)] of the per-flow decision cache. *)

val slice_counts : t -> shards:int -> int array
(** Installed rules per controller shard, by cookie residue
    ([cookie mod shards]). Controller shards allocate cookies strided
    by shard id, so this is the per-shard slice of the shared table. *)
