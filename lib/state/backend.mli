(** Pluggable state backends (the FlexState decoupling).

    A backend is where an NF instance's externalized state lives. The
    classic OpenNF model is {!local}: every instance owns in-process
    stores and reallocation means bulk get/put transfer. Decoupling the
    state from the instance enables two cheaper models:

    - {!shared}: several scale-out instances attach to one backend and
      obtain the {e same} store objects from its registry, so a [move]
      between them has nothing to transfer — the operation collapses to
      flow-mods (a metadata flip).
    - {!replicated_pair}: a primary streams per-key deltas to a standby
      over a {!Opennf_net.Channel}, so failover becomes promote-standby
      + reroute with zero bulk transfer at recovery time.

    The backend never interprets state: it moves opaque {!Chunk}s
    labelled with a {!Scope} and a flowid {!Opennf_net.Filter}, exactly
    the southbound currency. The NF runtime wires export/apply callbacks
    from its {!Opennf_sb.Nf_api.impl} and calls {!note_packet} after
    each packet; everything else is backend-internal.

    {2 Delta-frame wire format}

    Frames are seq-numbered and dedup-safe: [seq] increases by one per
    frame; a receiver drops any frame with [seq <= applied_seq] (channel
    duplication is harmless) and counts — but still applies — frames
    that arrive past a gap (each entry is a full-value snapshot of one
    key, so application is idempotent per key and self-healing). An
    entry is [(scope, flowid, chunk option)]; [None] propagates a
    deletion. Frames are cut at a byte budget mirroring the southbound
    [sb_batch_bytes] batching. *)

open Opennf_net

type t

type kind = Local | Shared | Replicated

type role =
  | Sole  (** Local and shared backends. *)
  | Primary  (** Replicated: exports deltas. *)
  | Standby  (** Replicated: applies deltas. *)
  | Promoted  (** A standby that took over; later frames are stale. *)

type stats = {
  frames_sent : int;
  entries_sent : int;
  delta_bytes : int;  (** Wire bytes of every frame sent so far. *)
  frames_applied : int;
  entries_applied : int;
  dup_frames : int;  (** Frames dropped by seq dedup. *)
  gap_frames : int;  (** Frames applied after a sequence gap. *)
  stale_frames : int;  (** Frames arriving after {!promote}. *)
}

val local : ?name:string -> unit -> t
(** In-process backend, the seed behavior: one instance, its own
    stores. Exists so every NF can be constructed over a backend handle
    uniformly; {!note_packet} and {!drain} are no-ops. *)

val shared : ?name:string -> unit -> t
(** One store registry attached to N scale-out instances: every
    {!get_store} with the same [name] returns the same object. *)

val replicated_pair :
  Opennf_sim.Engine.t ->
  ?name:string ->
  ?latency:float ->
  ?bandwidth:float ->
  ?batch_bytes:int ->
  ?faults:Opennf_sim.Faults.t ->
  unit ->
  t * t
(** [(primary, standby)] joined by a delta channel named
    ["<name>.delta"] (fault-injectable through [faults] under that
    name, like any channel). [latency] defaults to 2 ms (the control
    channel's), [bandwidth] to infinite. [batch_bytes] cuts frames at a
    byte budget; omitted means one frame per {!note_packet}. *)

val kind : t -> kind
val role : t -> role
val name : t -> string

(** {2 Store registry} *)

val get_store : t -> name:string -> id:'a Type.Id.t -> make:(unit -> 'a) -> 'a
(** First call under [name] stores [make ()]; later calls return that
    same value, which is how instances attached to a {!shared} backend
    end up reading and writing one set of stores. The witness [id] must
    be the one used at first registration ([Invalid_argument]
    otherwise — two NFs colliding on a name is a wiring bug). *)

(** {2 Delta replication}

    All of these are no-ops on [Local]/[Shared] backends, so the NF
    runtime calls them unconditionally. *)

val set_exporter : t -> (Scope.t -> Filter.t -> Chunk.t option) -> unit
(** Primary side: how to serialize one key's current value ([None] =
    the key no longer exists, which propagates as a delete). *)

val set_applier : t -> (Scope.t -> Filter.t -> Chunk.t option -> unit) -> unit
(** Standby side: how to install ([Some]) or delete ([None]) one key. *)

val note_packet : t -> Flow.key -> unit
(** The runtime's per-packet hook, the primary's only export path: it
    exports the packet's flow (Per scope, {!Filter.of_key}), then its
    source host and, when different, its destination host (Multi scope,
    {!Filter.of_src_host}), in that order, and sends them as one frame
    (or several, under [batch_bytes]). A key the exporter no longer has
    is sent as a delete only if the standby was sent it since its last
    delete. Per-flow flowids are directed: each direction of a
    connection the standby was sent gets its own delete, and a
    direction it was never sent gets none. The primary records the sent
    keys in a {!Store.Perflow_arena} (a row per connection, a bit per
    direction) and a {!Store.Per_host} table, with no boxed flowid per
    key. The delta stream stays as fresh as the packet stream, and
    replication work rides the packet's own service time (no extra
    virtual-time events on the primary). *)

val drain : t -> unit
(** Blocking (call from a process): wait until the standby has applied
    every frame sent so far. Used by the [move] fast path to guarantee
    the destination is caught up before traffic lands there. Returns
    immediately on non-primary backends. *)

val promote : t -> unit
(** Standby side: take over. Frames still in flight are ignored (and
    counted as [stale_frames]); pending {!drain} waiters are released. *)

(** {2 Routing predicates (used by the operation fast path)} *)

val same_store : t -> t -> bool
(** Physically the same non-replicated backend: src and dst read the
    same stores, a transfer between them has nothing to do. *)

val replica_pair : primary:t -> standby:t -> bool
(** [primary] streams to [standby] (and the standby has not been
    promoted): a transfer from primary to standby only needs {!drain}. *)

val covers : t -> Scope.t -> bool
(** Does the delta stream carry this scope? [Per] and [Multi] do;
    [All] (aggregate counters) does not stream and needs a bulk copy. *)

val stats : t -> stats
(** Counters of the replication link (zeros for non-replicated
    backends). Both ends of a pair report the same link. *)

val delta_bytes : t -> int
(** [ (stats t).delta_bytes ] — convenience for accounting. *)
