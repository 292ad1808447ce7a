(** Span tracer: the one event sink behind operation spans, scheduler
    queues, southbound message taps and the export mirror of the packet
    audit ledger.

    Events carry both a virtual-time stamp (from the simulation clock,
    deterministic) and a wall-clock stamp (profiling only). Spans are
    open/close pairs keyed by a tracer-assigned id with optional parent
    links; instants are single points. Everything lands in one append
    buffer in emission order, which — the simulation being
    single-threaded per engine — is itself deterministic.

    The tracer is {b off by default and allocation-free when disabled}:
    the recording sink is a no-op function pointer and every recording
    entry point bails on a single boolean before building anything.
    Call sites that must construct attribute arrays or strings guard on
    {!enabled} so the disabled path stays at zero allocations (budget-
    tested in [test_obs.ml]). *)

type value = Int of int | Float of float | Str of string | Bool of bool

type kind = Begin | End | Instant

type ev = {
  kind : kind;
  id : int;  (** Span id for [Begin]/[End]; 0 for instants. *)
  parent : int;  (** Enclosing span id, 0 at the root. *)
  cat : string;
  name : string;  (** Empty on [End]: resolved from the open by id. *)
  vt : float;  (** Virtual time (deterministic). *)
  wall : float;  (** Wall time (never part of the deterministic surface). *)
  attrs : (string * value) array;
}

type t

val create : ?enabled:bool -> unit -> t
(** [enabled] defaults to true; the disabled singleton is {!disabled}. *)

val disabled : t
(** The shared never-records tracer. Recording through it is a boolean
    check; safe to share across domains (nothing is written). *)

val enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Install the virtual-time source (the owning engine's [now]). *)

val span_open :
  t -> ?parent:int -> cat:string -> name:string ->
  ?attrs:(string * value) array -> unit -> int
(** Returns the span id (0 when disabled; closing 0 is a no-op). *)

val span_close : t -> int -> ?attrs:(string * value) array -> unit -> unit

val instant :
  t -> ?parent:int -> cat:string -> name:string ->
  ?attrs:(string * value) array -> unit -> unit

val on_event : t -> (ev -> unit) -> unit
(** Subscribe [f] to the live event stream: it runs synchronously on
    every recorded event, after the buffer append, in emission order.
    {!Monitor} rides it for op spans and phase marks
    ({!Monitor.op_event}); packet rows reach the monitor from the audit
    ledger directly, never through this stream. Multiple taps stack
    (registration order). On a disabled tracer this is a no-op; a
    tracer without taps keeps its bare append sink, so the untapped hot
    path is unchanged. Taps are observers: they must not record through
    the tracer or touch the simulation. *)

(** {1 Reading the buffer} *)

val length : t -> int
val nth : t -> int -> ev
val iter : t -> (ev -> unit) -> unit
val fold : t -> ('a -> ev -> 'a) -> 'a -> 'a
val pp_value : Format.formatter -> value -> unit
