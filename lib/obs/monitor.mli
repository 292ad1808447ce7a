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
    are detected online and also delivered to {!on_finding} taps.

    Shard-awareness: in [~par:true] fabrics one monitor rides each
    shard's audit stream; {!replay} merges the shard-tagged streams in
    the same [(time, source, sequence)] order as [Audit.merged], so the
    combined verdict is deterministic and invariant under permutation of
    the per-shard list. *)

type property = Loss | Order | Duplicate | Buffer_conservation

val property_name : property -> string
(** ["loss"], ["order"], ["duplicate"], ["buffer"]. *)

type finding = {
  property : property;
  flow : string;  (** Canonical 5-tuple, e.g. ["10.0.0.1:20000->172.31.0.1:443/tcp"]. *)
  pkt : int;  (** Packet id. *)
  shard : int;  (** Shard whose audit stream witnessed the violation. *)
  vt : float;  (** Virtual time of the packet's last relevant event. *)
  op_span : int;  (** Trace span id of the op it occurred under; 0 if none. *)
  op : string;  (** That op's name (["move"], ["copy"], …); [""] if none. *)
  phase : string;  (** Last phase mark under that op (["captured"], …). *)
  detail : string;
  history : string list;  (** Last-k audit events of the flow, oldest first. *)
}

type t

val create : ?shard:int -> ?history:int -> unit -> t
(** [shard] (default 0) tags this monitor's findings; [history]
    (default 8) is the per-flow last-k event ring size. *)

val feed : t -> Trace.ev -> unit
(** Push one event, in stream order. A fabric subscribes [feed m]
    through [Opennf_net.Audit.subscribe], which picks the hub trace
    when the hub is tracing (so op spans flow through and findings carry
    op/phase context) and the audit's own tap otherwise (findings carry
    packets only). *)

val events_seen : t -> int
(** Audit events consumed so far. *)

val on_finding : t -> (finding -> unit) -> unit
(** Called synchronously on every {e online} finding (order/duplicate
    violations — the properties decidable mid-stream). *)

val findings : t -> finding list
(** Online findings so far, in detection order. *)

val verdict : t -> finding list
(** Full verdict: online findings plus the end-of-stream scan for
    pending packets (loss, buffer conservation), sorted canonically by
    (time, shard, packet, property). Does not mutate the monitor — it
    may be called repeatedly, and more events may still be fed after. *)

val replay : ?history:int -> (int * Trace.ev Seq.t) list -> finding list
(** Deterministic combined verdict over shard-tagged event streams
    [(shard, events)] — typically each shard audit's
    [Opennf_net.Audit.events]: a fresh monitor is fed a k-way merge of
    the streams in ((virtual time, shard tag, stream position)) order,
    the [Audit.merged] discipline. Each stream's times must not
    decrease (one engine's clock). The result is a pure function of the
    tagged streams, invariant under permutation of the list, and
    nothing is buffered beyond one head per stream. *)

val clean : finding list -> bool
(** [findings = []]. *)

val render : finding list -> string
(** Deterministic human rendering (virtual-time data only): identical
    runs produce identical bytes. *)
