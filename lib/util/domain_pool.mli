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
    order. The calling domain works alongside [pool_size - 1] domains
    spawned for this call and joined before it returns. [domains] caps
    the pool size (default {!default_domains}, never more than there
    are tasks). An exception in any task is re-raised after every
    domain has joined. *)
