(** Deterministic, seeded fault injection.

    One [Faults.t] per engine describes which links misbehave and which
    nodes (NF instances) crash or hang. Channels and NF runtimes look
    their {!link} or {!node} handle up once, at creation, and consult it
    per message ({!link_plan}) or before processing or replying
    ({!node_alive}): a handle is the name's one mutable record, so a
    profile or fault registered later still applies. When no [Faults.t]
    is wired in — or no profile/fault is registered for a link or node
    — every consultation is a no-op and no randomness is drawn, so
    fault-free runs are bit-identical to runs of a build without this
    module.

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

type link
(** The fault profile of one named link, updated in place by
    {!set_link} and {!clear_link}. *)

val link : t -> string -> link
(** The link's handle; the same one for every call with the same name. *)

val set_link :
  t -> name:string -> ?drop:float -> ?dup:float -> ?jitter:float -> unit -> unit

val clear_link : t -> name:string -> unit
(** Back to the quiet profile (no drop, dup or jitter). *)

val link_quiet : link -> bool
(** No profile in force: {!link_plan} would return [(1, 0.0)] and draw
    nothing. *)

val link_plan : link -> int * float
(** Decides one message's fate: [(copies, jitter)] where [copies] is 0
    (dropped), 1 or 2, and [jitter] the extra delay. *)

val plan : t -> link:string -> int * float
(** [link_plan] of the named link. *)

val dropped_count : t -> int
val duplicated_count : t -> int

(** {1 Node faults}

    A crashed node is permanently silent: it drops packets, ignores
    southbound requests and sends no replies. A hung node behaves the
    same within its window and recovers after. *)

val crash_at : t -> node:string -> float -> unit
val crash_now : t -> node:string -> unit

val hang : t -> node:string -> from_:float -> until:float -> unit

type node
(** One node's crash instant and hang windows, updated in place by
    {!crash_at}, {!crash_now} and {!hang}. *)

val node : t -> string -> node
(** The node's handle; the same one for every call with the same name. *)

val node_alive : node -> bool
(** False iff the node is crashed or inside a hang window now. *)

val alive : t -> node:string -> bool
(** [node_alive] of the named node. *)
