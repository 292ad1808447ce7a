(** An OpenFlow-style SDN switch.

    The switch matches arriving packets against its flow table and
    forwards them out ports (channels to NF instances) and/or to the
    controller as packet-ins. The control interface models the costs
    that drive OpenNF's evaluation:

    - flow-mods take [flow_mod_delay] to become active after arriving;
    - barriers reply only after every earlier flow-mod is active
      (footnote 8's "existing SDN consistency mechanisms");
    - packet-outs drain at [packet_out_rate] per second. The production
      bottleneck behind Figure 11(b) — the control connection's
      throughput — is modeled on the controller→switch channel (see
      {!Controller.config}); the switch-side limiter defaults to
      effectively unlimited and exists for experiments that need a slow
      packet-out engine specifically. *)

type to_switch =
  | Install of {
      cookie : int;
      priority : int;
      filters : Filter.t list;
      actions : Flowtable.action list;
    }
  | Remove of { cookie : int }
  | Packet_out of { port : string; packet : Packet.t }
  | Barrier of { id : int }

type from_switch =
  | Packet_in of { packet : Packet.t; cookie : int }
  | Barrier_reply of { id : int }

type t

val create :
  Opennf_sim.Engine.t ->
  Audit.t ->
  name:string ->
  ?flow_mod_delay:float ->
  ?packet_out_rate:float ->
  unit ->
  t
(** Defaults: [flow_mod_delay] 10 ms, [packet_out_rate] effectively
    unlimited. *)

val attach_port : t -> name:string -> Packet.t Channel.t -> unit
(** Connect an output port. [Flowtable.Forward name] sends on it. *)

val set_controller : t -> from_switch Channel.t -> unit
(** Channel on which the switch emits packet-ins and barrier replies;
    binds connection 0 (the single-controller wiring). *)

val register_controller : t -> from_switch Channel.t -> int
(** Bind an additional controller connection; returns its connection
    id (0, 1, 2, … in registration order). Barrier replies return on
    the connection that issued the barrier; packet-ins are routed by
    {!set_packet_in_router} (default: everything to connection 0). *)

val set_packet_in_router : t -> (Packet.t -> int) -> unit
(** Route packet-ins by packet (e.g. a flowspace-shard hash). Replies
    to barriers are unaffected — those always return to the issuing
    connection. A switch→controller message (packet-in or barrier
    reply) aimed at a connection with no bound channel raises
    [Invalid_argument], as a forward out an unknown port does. *)

val control : t -> to_switch -> unit
(** Deliver a control message to the switch (call through a channel to
    model controller→switch latency). Equivalent to [control_from]
    on connection 0. *)

val control_from : t -> conn:int -> to_switch -> unit
(** Deliver a control message arriving on a specific controller
    connection. Barrier semantics are per-connection, as in OpenFlow: a
    barrier covers only the flow-mods that arrived on [conn], and its
    reply is emitted on [conn]'s channel. *)

val inject : t -> Packet.t -> unit
(** A data packet arrives at the switch. No matching rule ⇒ the packet
    is dropped (counted in [table_misses]). *)

val table : t -> Flowtable.t
val table_misses : t -> int

val packet_out_backlog : t -> int
(** Packet-outs accepted but not yet transmitted. *)

val slice_rule_counts : t -> shards:int -> int array
(** Installed rules per flow-table slice. The data plane is one shared
    table (it is one switch), but cookies are allocated strided by the
    owning controller shard ([cookie mod shards] = shard id), so the
    cookie partition {e is} the slice: entry [k] counts the rules shard
    [k] owns. *)
