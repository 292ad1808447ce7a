(** NF runtime: hosts an NF implementation inside the simulation.

    The runtime owns the NF's packet queue and CPU (a serial state
    machine: each packet's service ends in one completion event),
    executes southbound requests in a worker process, generates
    packet-received events, and maintains the event filters, per-filter packet buffers
    and the "moved away" tombstones that make packets for relocated
    flows drop instead of re-creating state (§5.1).

    Event semantics (§4.3): when a packet matches an enabled event
    filter, the NF raises an [Event] carrying a copy of the packet and
    applies the filter's action — [Drop] discards it (unless the packet
    carries "do-not-drop"), [Buffer] parks it until events are disabled
    (unless it carries "do-not-buffer"), [Process] handles it normally.
    For packets that are processed, the event is raised {e after}
    processing completes, which is what lets the controller use events
    as "state updates are done" signals (§5.1.2, §5.2.2).

    Filters are scanned newest first and the first match applies; a
    packet no filter matches is dropped silently if a tombstone covers
    its flow and processed otherwise. A late-locking get
    ({!Protocol.request} [Get_perflow] with [late_lock]) installs one
    [Drop] filter on its own filter, which does not match the packets
    of a snapshot flow until that flow is about to be exported; such
    packets fall through to older filters, tombstones and processing
    as if the filter were absent. *)

open Opennf_net

type t

val create :
  Opennf_sim.Engine.t ->
  Audit.t ->
  name:string ->
  impl:Nf_api.impl ->
  costs:Costs.t ->
  ?faults:Opennf_sim.Faults.t ->
  ?backend:Opennf_state.Backend.t ->
  unit ->
  t
(** Starts the southbound worker process immediately. With [faults],
    the runtime consults its node's {!Opennf_sim.Faults.node} handle
    (looked up once here, so a crash or hang registered later still
    applies): once its node is crashed (or while hung) it stops
    processing packets, ignores southbound requests and sends no
    replies. A packet on the CPU at the crash instant is lost and later
    packets stay queued; a hung NF serves its queue again from the
    first packet that arrives after the hang window.

    With [backend], the runtime wires the NF's export/import functions
    as the backend's delta exporter/applier and exports the packet's
    keys after every processed packet ({!Opennf_state.Backend.note_packet}),
    which is what keeps a replicated backend's standby fresh. [Local]
    and [Shared] backends make all of that a no-op. *)

val backend : t -> Opennf_state.Backend.t option

val name : t -> string
val impl : t -> Nf_api.impl
val costs : t -> Costs.t

val bind_shard : t -> int -> unit
(** Record the controller shard this runtime answers to; called by
    [Controller.attach]. Purely descriptive (the runtime talks to its
    home shard through the channels attach wired up), but lets tools
    and tests ask a runtime where it lives. *)

val shard : t -> int
(** The bound controller shard; 0 until {!bind_shard}. *)

val receive : t -> Packet.t -> unit
(** Data-plane entry point: wire this as the handler of the switch-port
    channel feeding this NF. *)

val control : t -> Protocol.request -> unit
(** Control-plane entry point (handler of the controller→NF channel).
    [Enable_events]/[Disable_events] take effect immediately; state
    operations are queued and executed FIFO on the NF's CPU. *)

val set_controller : t -> Protocol.reply Channel.t -> unit
(** Channel on which replies and events are sent. *)

(** {1 Introspection for tests and benches} *)

val processed_count : t -> int
val dropped_count : t -> int
(** All intentionally dropped packets (event-drop + tombstone). *)

val tombstone_dropped : t -> int
(** Packets dropped because their flow's state was moved away (these are
    the losses of a move without guarantees). *)

val buffered_count : t -> int
(** Packets currently parked in event buffers. *)

val queue_length : t -> int
val busy : t -> bool
(** A state export/import is currently running. *)
