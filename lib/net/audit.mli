(** Audit ledger: the ground truth for safety properties.

    The switch logs every forwarding decision; NF runtimes log arrivals,
    processing, drops, buffering and event generation. Tests and benches
    query this ledger to check the paper's §5.1 definitions:

    - {b loss-freedom}: every packet the switch forwarded toward NF
      instances is eventually processed by exactly one instance;
    - {b order preservation}: the cross-instance processing order equals
      the switch's (first-time) forwarding order.

    The ledger is a sequence of fixed-size row chunks: [Bytes] blocks
    of 4,096 rows, one 40-byte row per record (a kind byte, the
    interned instance name, packet id, source, destination, packed
    protocol/ports and the virtual time). A full chunk is never copied;
    the next record opens a new one. [Bytes] blocks are opaque to the
    GC, so the major GC never scans the rows. Logging a record
    allocates nothing on the minor heap, and every query scans the
    rows. When the engine's hub is tracing, each record is
    also mirrored into the hub trace as a [cat:"audit"] instant, so the
    Chrome export and the timeline show packets interleaved with op
    spans; the mirror is an export, never read back
    by queries. *)

type t

val create : Opennf_sim.Engine.t -> t
(** Mirrors records into the engine hub's tracer when it is tracing. *)

type record = { pkt : int; key : Flow.key; nf : string; time : float }

val subscribe : t -> (Opennf_obs.Trace.ev -> unit) -> unit
(** Subscribe to the live stream, in emission order. When the hub is
    tracing this is the hub trace itself ({!Opennf_obs.Trace.on_event}):
    op spans and phase marks arrive interleaved with the ledger's
    [cat:"audit"] instants, which is what gives {!Opennf_obs.Monitor}
    findings their op context. Otherwise each record is delivered as a
    transient audit instant, built only because a subscriber exists.
    Subscribers observe only: they must not log back into the ledger or
    touch the simulation. *)

val on_record : t -> (string -> record -> unit) -> unit
(** {!subscribe} to the records alone: [f name record] runs on every
    audit record as it is logged (names: ["arrival"], ["forward"],
    ["nf_arrival"], ["process"], ["drop"], ["event"], ["buffer"]). *)

val events : t -> Opennf_obs.Trace.ev Seq.t
(** The ledger as a replay stream, one transient audit instant per
    record in row order; when the hub traced the run, the hub's other
    events (op spans, phase marks) are interleaved at their emission
    positions, exactly as {!subscribe} saw them. This is what
    {!Opennf_obs.Monitor.replay} consumes for a post-run verdict. *)

val snapshot : t -> Opennf_obs.Trace.t
(** A fresh trace holding one audit instant per record, for tests and
    exports that want a {!Opennf_obs.Trace.t}. Copies the whole ledger
    into boxed events: never call it on a run path. *)

(** {1 Recording} *)

val log_forward : t -> Packet.t -> dst:string -> unit
(** The switch forwarded the packet out the port named [dst]. Relays of
    an already-forwarded id are recorded but do not change the packet's
    first-forwarding position. *)

val log_switch_arrival : t -> Packet.t -> unit
(** The packet reached the switch from the network (recorded once per
    id). Arrival order is the ground truth for control planes that
    divert packets entirely to the controller, where no port forwarding
    happens until re-injection. *)

val log_nf_arrival : t -> Packet.t -> nf:string -> unit
val log_process : t -> Packet.t -> nf:string -> unit
val log_drop : t -> Packet.t -> nf:string -> unit
val log_evented : t -> Packet.t -> nf:string -> unit
(** The NF raised a packet-received event for this packet. *)

val log_buffered : t -> Packet.t -> nf:string -> unit

(** {1 Queries} *)

val forwarded_order : ?filter:Filter.t -> t -> int list
(** Packet ids in first-forwarding order (deduplicated). *)

val processed_order : ?filter:Filter.t -> ?nf:string -> t -> int list
(** Packet ids in processing order, across all instances unless [nf] is
    given. Ids repeat if a packet was processed more than once. *)

val drop_count : ?nf:string -> t -> int
val processed_count : ?nf:string -> t -> int

val lost : ?filter:Filter.t -> t -> nfs:string list -> int list
(** Ids forwarded to one of [nfs] (first forwarding) but never processed
    by any of them. *)

val duplicated : ?filter:Filter.t -> t -> int list
(** Ids processed more than once across all instances. *)

val order_violations : ?filter:Filter.t -> t -> (int * int) list
(** Pairs [(a, b)] where [a] was first-forwarded before [b] but processed
    after it (both restricted to [filter] and to processed packets). *)

val arrival_order_violations : ?filter:Filter.t -> t -> (int * int) list
(** Like {!order_violations}, but against switch {e arrival} order. *)

val added_latency : t -> pkt:int -> float option
(** [process_time - first NF arrival time] for the packet, if both are
    recorded. *)

val evented_ids : ?nf:string -> t -> int list
val buffered_ids : ?nf:string -> t -> int list
val first_forward_time : t -> pkt:int -> float option
val process_time : t -> pkt:int -> float option
