(** Streaming runtime verification of the paper's §5.1 guarantees.

    A monitor has two typed inputs: {!row}, one call per audit-ledger
    row (live through [Opennf_net.Audit.subscribe], after the run
    through [Opennf_net.Audit.replay]), and {!op_event}, the hub trace's
    op spans and phase marks (a {!Trace.on_event} tap, a no-op on a
    disabled tracer). From the rows it maintains per-flow automata for:

    - {b loss-freedom}: every packet the switch forwarded toward an NF
      is eventually processed by exactly one instance;
    - {b order preservation}: each flow's processing order equals its
      first-forwarding order (§5.1.2 is a per-flow property);
    - {b duplicate-freedom}: no packet is processed twice;
    - {b buffer conservation}: every packet an NF buffered during a
      move is eventually released and processed.

    Each row costs O(1) table work and builds no string: per-flow state,
    keyed by the packet's directed 5-tuple, is a pair of counters plus
    a ring of the flow's last 8 rows held as typed fields, so memory is
    O(flows + in-flight packets + processed ids). Flow strings and
    history lines are rendered only when a finding is built. The
    monitor is a pure observer: it never reads the engine clock, never
    schedules, and never records through the tracer, so a monitored
    run's virtual-time results are byte-identical to an unmonitored
    one.

    "Eventually" properties (loss, buffer conservation) cannot fire
    mid-stream; they are checked by {!verdict}, which scans the still-
    pending packets at end of stream. Order and duplicate violations
    are detected online and listed by {!findings}.

    A fabric has one audit stream however many control-plane shards it
    runs, so one monitor sees every packet; a finding's shard comes from
    the [shard] attribute of the op span it occurred under. *)

type kind = Arrival | Forward | Nf_arrival | Process | Drop | Event | Buffer
(** What an audit row records: a switch arrival, a forwarding, an NF
    arrival, processing, a drop, a raised packet event, buffering. *)

val kind_name : kind -> string
(** ["arrival"], ["forward"], ["nf_arrival"], ["process"], ["drop"],
    ["event"], ["buffer"]: a row's name in findings' histories and in
    the ledger's trace export. *)

type property = Loss | Order | Duplicate | Buffer_conservation

val property_name : property -> string
(** ["loss"], ["order"], ["duplicate"], ["buffer"]. *)

type finding = {
  property : property;
  flow : string;
      (** The packet's directed 5-tuple as it crossed the switch, e.g.
          ["10.0.0.1:20000->172.31.0.1:443/tcp"]; a flow's two
          directions are two keys. *)
  pkt : int;  (** Packet id. *)
  shard : int;
      (** Shard of the op the violation occurred under (its span's
          [shard] attribute); 0 outside any op. *)
  vt : float;  (** Virtual time of the packet's last relevant event. *)
  op_span : int;  (** Trace span id of the op it occurred under; 0 if none. *)
  op : string;  (** That op's name (["move"], ["copy"], …); [""] if none. *)
  phase : string;  (** Last phase mark under that op (["captured"], …). *)
  detail : string;
  history : string list;  (** The flow's last 8 rows, oldest first. *)
}

type t

val create : unit -> t

val row :
  t ->
  kind ->
  pkt:int ->
  nf:string ->
  src:int ->
  dst:int ->
  proto:int ->
  sport:int ->
  dport:int ->
  vt:float ->
  unit
(** Push one audit row, in stream order: packet id, instance name, the
    packet's directed 5-tuple (IPv4 addresses as ints, IP protocol
    number, ports) and virtual time. The row is attributed to the
    newest op span still open (see {!op_event}). *)

val op_event : t -> Trace.ev -> unit
(** Push one hub-trace event, in stream order. Only op span opens
    ([cat:"op"]), span closes and phase marks (op instants with a
    parent) are read; every other event is ignored. Without them
    findings carry packets only. *)

val findings : t -> finding list
(** Online findings so far, in detection order. *)

val verdict : t -> finding list
(** Full verdict: online findings plus the end-of-stream scan for
    pending packets (loss, buffer conservation), sorted canonically by
    (time, shard, packet, property). Does not mutate the monitor — it
    may be called repeatedly, and more events may still be fed after. *)

val clean : finding list -> bool
(** [findings = []]. *)

val render : finding list -> string
(** Deterministic human rendering (virtual-time data only): identical
    runs produce identical bytes. *)
