(** Deterministic, seeded fault injection.

    One [Faults.t] per engine describes which links misbehave and which
    nodes (NF instances) crash or hang. Channels consult {!plan} per
    message; NF runtimes consult {!alive} before processing or replying.
    When no [Faults.t] is wired in — or no profile/fault is registered
    for a link or node — every consultation is a no-op and no randomness
    is drawn, so fault-free runs are bit-identical to runs of a build
    without this module.

    All decisions come from a private splitmix64 stream, so a given
    seed yields the same fault schedule on every run. *)

type t

val create : Engine.t -> ?seed:int -> unit -> t

(** {1 Link faults}

    A profile applies to the channel whose [name] matches. [drop] and
    [dup] are per-message probabilities (drop wins over dup); [jitter]
    is an extra delivery delay drawn uniformly from [\[0, jitter\]]
    seconds. Jitter is FIFO-preserving: it delays a message and every
    later one past it, modeling congestion rather than reordering. *)

val set_link :
  t -> name:string -> ?drop:float -> ?dup:float -> ?jitter:float -> unit -> unit

val clear_link : t -> name:string -> unit

val plan : t -> link:string -> int * float
(** [plan t ~link] decides one message's fate: [(copies, jitter)] where
    [copies] is 0 (dropped), 1 or 2, and [jitter] the extra delay. *)

val dropped_count : t -> int
val duplicated_count : t -> int

(** {1 Node faults}

    A crashed node is permanently silent: it drops packets, ignores
    southbound requests and sends no replies. A hung node behaves the
    same within its window and recovers after. *)

val crash_at : t -> node:string -> float -> unit
val crash_now : t -> node:string -> unit

val hang : t -> node:string -> from_:float -> until:float -> unit

val alive : t -> node:string -> bool
(** False iff the node is crashed or inside a hang window now. *)

val crashed : t -> node:string -> bool
val crash_time : t -> node:string -> float option
(** The effective crash instant, once it has passed. *)
