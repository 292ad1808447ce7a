(** Discrete-event simulation engine.

    A single-threaded event loop over virtual time (seconds, as float).
    Events scheduled for the same instant run in FIFO order of
    scheduling, which makes every run deterministic: same seed, same
    schedule, same results. *)

type t

val create : ?seed:int -> ?obs:Opennf_obs.Hub.t -> unit -> t
(** [create ~seed ()] makes an engine whose clock is at 0.0 and whose
    root RNG is seeded with [seed] (default 1). [obs] (default
    {!Opennf_obs.Hub.disabled}) is the observability hub; the engine
    installs its virtual clock as the hub's trace timebase and counts
    dispatched events under ["engine.events"].

    The event queue is an O(1)-amortized calendar-queue timing wheel
    that dispatches in strict (time, seq) order. *)

val obs : t -> Opennf_obs.Hub.t
(** The hub this engine was created with, for components to share. *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Opennf_util.Rng.t
(** The engine's root RNG. Subsystems should [Rng.split] it. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** [schedule_at t time f] runs [f] when the clock reaches [time].
    [time] must not be in the past. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] after [delay] seconds ([delay >= 0]). *)

val run : ?until:float -> t -> unit
(** Process events until the queue is empty, or the clock would pass
    [until]. Re-entrant calls are not allowed. *)

(** {2 Bounded stepping} *)

type stop = Empty | Reached_until

val run_until : t -> until:float -> stop
(** Dispatch events while their time is [<= until]. Unlike
    [run ?until], it reports why it stopped and never fast-forwards the
    clock: it returns [Empty] when the queue ran dry, [Reached_until]
    when the next pending event lies beyond [until] (the clock is left
    at the last dispatched event, NOT advanced to [until] — the caller
    owns the horizon). It shares [run]'s dispatch path, so it observes
    exactly the event sequence a free [run] would. Raises
    [Invalid_argument] on re-entrant use. *)

val pending : t -> int
(** Number of queued events. *)

val processed : t -> int
(** Total number of events executed so far. *)
