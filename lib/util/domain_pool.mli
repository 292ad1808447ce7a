(** A small domain pool for the bench harness.

    Runs independent, fully-seeded scenarios in parallel, one scenario
    per domain at a time. Each task runs entirely within a single
    domain, so scenario-internal determinism (simulation engine, RNG
    streams, domain-local scratch buffers) is untouched — parallelism
    only changes which wall-clock core a scenario occupies. *)

val default_domains : unit -> int
(** Usable domain count (at least 1): the runtime's recommendation,
    capped by the process CPU affinity mask when the kernel exposes it
    — a cpuset-restricted process gets the domains it can actually
    run, not the machine's core count. *)

val pool_size : ?domains:int -> tasks:int -> unit -> int
(** The pool size {!run} will use for [tasks] thunks under the same
    [domains] argument (0 when there are no tasks). Lets callers report
    real parallelism and skip pool-vs-serial comparisons when the
    answer is 1 (tasks then run inline, with no dispatch overhead). *)

val run : ?domains:int -> (unit -> 'a) array -> 'a array
(** [run tasks] evaluates every thunk and returns their results in task
    order, on a transient {!Workers} pool shut down before returning.
    [domains] caps the pool size (default {!default_domains}, never
    more than there are tasks). An exception in any task is re-raised
    after all workers finish. *)

(** Persistent pinned workers: spawn once, submit many rounds.

    For callers that dispatch thousands of tiny synchronous rounds
    (the parallel-DES epoch loop), where a [Domain.spawn] per round
    would dwarf the work. Worker 0 is the calling domain itself, so a
    pool of size [n] spawns [n - 1] helper domains; worker [w] always
    runs on the same domain, which keeps any domain-local state (and
    effect-handler continuations captured inside a worker's share)
    on one consistent domain across rounds. *)
module Workers : sig
  type t

  val create : ?domains:int -> unit -> t
  (** Spawn the helpers now. [domains] caps the pool size (default
      {!default_domains}; minimum 1 — a size-1 pool spawns nothing and
      {!run} degenerates to an inline call). *)

  val size : t -> int
  (** Number of workers, including the caller's domain as worker 0. *)

  val run : t -> (int -> unit) -> unit
  (** [run t f] executes [f w] on every worker [w] (0 inclusive) and
      returns when all have finished. If any [f w] raised, [run]
      re-raises the first exception in worker order once every worker
      is done, so a raise on a helper domain propagates exactly as it
      would at size 1; the pool stays usable. The atomics protecting the round
      hand-off give the usual happens-before edges: writes made before
      [run] are visible to every worker, and writes made by workers are
      visible to the caller after [run] returns. Helpers spin briefly
      between rounds, then block — an idle pool costs no CPU. *)

  val shutdown : t -> unit
  (** Stop and join the helper domains. Idempotent. Required before the
      process can spawn unrelated domains past the runtime's limit —
      don't leak pools in loops that create many of them. *)
end
