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
    allocates nothing on the minor heap unless the hub is tracing or a
    subscriber is attached, and every query scans the rows.

    Rows reach observers as typed fields ({!subscriber}): live through
    {!subscribe}, after the run through {!replay}. When the engine's hub
    is tracing, each record is also mirrored into the hub trace as an
    instant of category ["audit"], named after the row's kind, so the
    Chrome export and the timeline show packets interleaved with op
    spans. The mirror is an export: only this module knows its
    attribute layout, and nothing in the library reads it back. *)

type t

val create : Opennf_sim.Engine.t -> t
(** Mirrors records into the engine hub's tracer when it is tracing. *)

type subscriber =
  Opennf_obs.Monitor.kind ->
  pkt:int ->
  nf:string ->
  src:int ->
  dst:int ->
  proto:int ->
  sport:int ->
  dport:int ->
  vt:float ->
  unit
(** One row: its kind, packet id, interned instance name, the packet's
    directed 5-tuple as ints (IPv4 addresses, IP protocol number,
    ports) and its virtual time — {!Opennf_obs.Monitor.row}'s shape. *)

val subscribe : t -> subscriber -> unit
(** Call [f] on every row as it is logged, in row order, whether or not
    the hub is tracing. Op spans do not pass through here: a checker
    that wants op context also taps the hub trace
    ({!Opennf_obs.Trace.on_event}), which sees them interleaved with
    the rows in emission order. Subscribers observe only: they must not
    log back into the ledger or touch the simulation. *)

val replay : t -> row:subscriber -> hub:(Opennf_obs.Trace.ev -> unit) -> unit
(** The ledger as it streamed: every row to [row], in row order; when
    the hub traced the run, the hub's other events (op spans, phase
    marks, …) go to [hub], interleaved at their emission positions,
    exactly as {!subscribe} and a hub tap saw them live. Builds no
    trace event per row. *)

(** {1 Recording} *)

val log_forward : t -> Packet.t -> dst:string -> unit
(** The switch forwarded the packet out the port named [dst]. Relays of
    an already-forwarded id are recorded but do not change the packet's
    first-forwarding position. *)

val log_switch_arrival : t -> Packet.t -> unit
(** The packet reached the switch from the network (recorded once per
    id). Arrival order is the ground truth for control planes that
    divert packets entirely to the controller, where no port forwarding
    happens until re-injection.

    The ids seen so far are a flat set of ints (any int, negative ids
    included), one 8-byte slot per id at load 1/4 to 1/2, kept for the
    ledger's life; checking and adding an id allocates nothing. *)

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
val process_time : t -> pkt:int -> float option
