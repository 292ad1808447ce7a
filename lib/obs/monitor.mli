(** Streaming runtime verification of the paper's §5.1 guarantees.

    A monitor subscribes to the live audit stream (the audit ledger's
    records as [cat:"audit"] instants, plus the op spans interleaved
    with them when the hub is tracing)
    and maintains per-flow automata for:

    - {b loss-freedom}: every packet the switch forwarded toward an NF
      is eventually processed by exactly one instance;
    - {b order preservation}: each flow's processing order equals its
      first-forwarding order (§5.1.2 is a per-flow property);
    - {b duplicate-freedom}: no packet is processed twice;
    - {b buffer conservation}: every packet an NF buffered during a
      move is eventually released and processed.

    Each audit event costs O(1) table work; per-flow state is a pair of
    counters plus a bounded ring of the last-k events, so memory is
    O(flows + in-flight packets + processed ids). The monitor is a pure
    observer: it never reads the engine clock, never schedules, and
    never records through the tracer, so a monitored run's virtual-time
    results are byte-identical to an unmonitored one.

    "Eventually" properties (loss, buffer conservation) cannot fire
    mid-stream; they are checked by {!verdict}, which scans the still-
    pending packets at end of stream. Order and duplicate violations
    are detected online and listed by {!findings}.

    A fabric has one audit stream however many control-plane shards it
    runs, so one monitor sees every packet; a finding's shard comes from
    the [shard] attribute of the op span it occurred under. *)

type property = Loss | Order | Duplicate | Buffer_conservation

val property_name : property -> string
(** ["loss"], ["order"], ["duplicate"], ["buffer"]. *)

type finding = {
  property : property;
  flow : string;  (** Canonical 5-tuple, e.g. ["10.0.0.1:20000->172.31.0.1:443/tcp"]. *)
  pkt : int;  (** Packet id. *)
  shard : int;
      (** Shard of the op the violation occurred under (its span's
          [shard] attribute); 0 outside any op. *)
  vt : float;  (** Virtual time of the packet's last relevant event. *)
  op_span : int;  (** Trace span id of the op it occurred under; 0 if none. *)
  op : string;  (** That op's name (["move"], ["copy"], …); [""] if none. *)
  phase : string;  (** Last phase mark under that op (["captured"], …). *)
  detail : string;
  history : string list;  (** Last-k audit events of the flow, oldest first. *)
}

type t

val create : ?history:int -> unit -> t
(** [history] (default 8) is the per-flow last-k event ring size. *)

val feed : t -> Trace.ev -> unit
(** Push one event, in stream order. A fabric subscribes [feed m]
    through [Opennf_net.Audit.subscribe], which picks the hub trace
    when the hub is tracing (so op spans flow through and findings carry
    op/phase context) and the audit's own tap otherwise (findings carry
    packets only). *)

val findings : t -> finding list
(** Online findings so far, in detection order. *)

val verdict : t -> finding list
(** Full verdict: online findings plus the end-of-stream scan for
    pending packets (loss, buffer conservation), sorted canonically by
    (time, shard, packet, property). Does not mutate the monitor — it
    may be called repeatedly, and more events may still be fed after. *)

val replay : ?history:int -> Trace.ev Seq.t -> finding list
(** Deterministic verdict over one event stream — typically
    [Opennf_net.Audit.events] or a hub trace: a fresh monitor is fed
    the stream in order and its {!verdict} returned. A pure function of
    the stream; nothing is buffered. *)

val clean : finding list -> bool
(** [findings = []]. *)

val render : finding list -> string
(** Deterministic human rendering (virtual-time data only): identical
    runs produce identical bytes. *)
