(** A Squid-like caching web proxy.

    The proxy is an on-path NF (Figure 4(b)): clients request objects
    by URL and the proxy serves them from its in-memory cache (hit) or
    fetches and caches them (miss). State taxonomy (§7):

    - {b per-flow}: client connection context, including the in-progress
      transfer (URL and byte offset);
    - {b multi-flow}: cache entries, keyed by URL and referenced by the
      client addresses actively being served from them.

    If a connection whose transfer is in progress arrives at an instance
    lacking the cache entry it is being served from, the instance
    {e crashes} — exactly the failure Table 1's "ignore multi-flow
    state" column reports. *)

type t

val create : unit -> t
(** Object sizes are derived deterministically from the URL (0.5–4 MB),
    so two instances agree on content without shared configuration. *)

val impl : t -> Opennf_sb.Nf_api.impl

val object_size : string -> int
(** The deterministic size of a URL's object. *)

(** {1 Inspection} *)

val hits : t -> int
val misses : t -> int
val crashed : t -> bool
val cache_size : t -> int
(** Number of cached objects. *)

val in_progress : t -> int
(** Connections with an active transfer. *)
