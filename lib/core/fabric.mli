(** Testbed wiring: one switch, one controller, N NF instances.

    Mirrors the paper's evaluation setup (§8): an OpenFlow switch whose
    ports feed NF instances, an OpenNF controller connected to both, and
    traffic injected at the switch. Every experiment, test and example
    builds on this module.

    Every fabric owns a {!Opennf_sim.Faults.t} handle, consulted by all
    control channels, NF runtimes and switch ports it wires up. With no
    fault profiles registered it draws no randomness and schedules no
    events, so fault-free runs are bit-identical to a fabric without
    it. Pass [resilience] to also arm the controller's deadline/retry/
    liveness machinery. *)

open Opennf_net
module Engine = Opennf_sim.Engine

type t = {
  engine : Engine.t;
  audit : Audit.t;
  switch : Switch.t;
  ctrl : Controller.t;
      (** Shard 0's controller — {e the} controller of an unsharded
          fabric. *)
  group : Shard.t;
      (** The shard group: one controller and one scheduler per shard
          (a single-member group when [shards] is 1). It is the one
          admission path for northbound operations:
          {!Move.submit_sharded}, {!Copy_op.submit_sharded},
          [Share.start ~shard_group] and [Notify.enable ~shard_group].
          Each scheduler is idle (and free) until something is
          submitted to it; read shard [k]'s queue statistics with
          [Sched.stats (Shard.sched group k)]. *)
  faults : Opennf_sim.Faults.t;
  monitor : Opennf_obs.Monitor.t option;
      (** The live §5.1 guarantee checker ({!Opennf_obs.Monitor}), when
          the fabric was created with [~monitor:true]: it reads every
          audit row ({!Audit.subscribe}) and, when the hub is tracing,
          the hub's op spans ({!Opennf_obs.Trace.on_event}). Online
          findings (order/duplicate) surface on it during the run; use
          {!verdict} for the full end-of-run check. *)
}

val create :
  ?seed:int ->
  ?obs:Opennf_obs.Hub.t ->
  ?config:Controller.config ->
  ?flow_mod_delay:float ->
  ?packet_out_rate:float ->
  ?resilience:Controller.resilience ->
  ?max_concurrent_ops:int ->
  ?shards:int ->
  ?monitor:bool ->
  unit ->
  t
(** Switch ports have a fixed 200 µs link latency. Defaults: switch
    defaults per {!Switch}, no resilience policy (legacy blocking
    behavior), [max_concurrent_ops] per {!Sched.create}. [obs] (default
    disabled) is handed to the engine and from there reaches every
    component the fabric wires up: op spans, scheduler queues,
    southbound taps, channel counters, the flow table and the audit
    ledger all record through it.

    [shards] (default 1) partitions the control plane: [shards]
    controller instances share the one switch (one OpenFlow connection
    each), packet-ins are routed to the shard owning the packet's flow
    ({!Shard.of_key}), and each shard has its own scheduler. All shards
    run in the one engine, so the fabric stays one deterministic
    virtual-time simulation: shards overlap their controller CPU in
    virtual time, not on host cores.
    With [shards = 1] every event is bit-identical to earlier fabrics.

    [monitor] (default: the [OPENNF_MONITOR] environment variable, else
    false) attaches an {!Opennf_obs.Monitor} to the audit rows — a
    pure observer, so monitored runs keep virtual-time results
    byte-identical to unmonitored ones. *)

val shards : t -> int

val monitored : t -> bool
(** Whether a live guarantee monitor is attached ([~monitor:true]). *)

val verdict : t -> Opennf_obs.Monitor.finding list
(** End-of-run guarantee check: feeds a fresh {!Opennf_obs.Monitor}
    the audit rows ({!Audit.replay}, with the hub's op spans
    interleaved at their emission positions when the run was traced,
    so findings keep their op/phase context) and returns its
    {!Opennf_obs.Monitor.verdict}. The result is deterministic, equal
    to the live {!monitor}'s view of the same run, and available on
    {e any} fabric, monitored or not (the audit ledger is always on).
    Nothing is materialized: no trace, no sorted event list. Call after
    {!run} returns. *)

val live_findings : t -> Opennf_obs.Monitor.finding list
(** Online findings (order/duplicate violations) streamed by the live
    monitor so far, in detection order; [[]] when {!monitored} is
    false. *)

val add_nf :
  ?backend:Opennf_state.Backend.t ->
  ?shard:int ->
  t ->
  name:string ->
  impl:Opennf_sb.Nf_api.impl ->
  costs:Opennf_sb.Costs.t ->
  Controller.nf * Opennf_sb.Runtime.t
(** Creates the NF runtime, connects it to a switch port named [name]
    and to the controller. [backend] declares where this instance's
    state lives (see {!Opennf_state.Backend}): it is wired into the
    runtime's packet path and registered with the controller, enabling
    the shared-store and replicated fast paths of {!Controller.state_path}.
    [shard] picks the home shard (default {!Shard.of_name} of [name];
    always 0 in a 1-shard fabric). *)

val inject : t -> Packet.t -> unit
(** Deliver a packet to the switch now. *)

val inject_at : t -> float -> Packet.t -> unit
(** Deliver a packet to the switch at an absolute virtual time. *)

val run : ?until:float -> t -> unit
(** Run the simulation ([Engine.run]). *)

val run_proc : t -> (unit -> unit) -> unit
(** Spawn a simulation process (for calling blocking northbound
    operations) and run until quiescent. *)
