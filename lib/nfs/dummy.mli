(** Dummy NF for the controller-scalability experiment (§8.3).

    Replays canned state: every flow it has seen exports a fixed-size
    chunk (the paper uses 202-byte chunks derived from PRADS traces),
    imports are consumed without interpretation, and processing is
    nearly free. This isolates controller performance from NF costs.

    The flows live in a {!Opennf_state.Store.Perflow_arena} with no
    payload: processing or importing a flow inserts its canonical key,
    deleting removes it, an export probes it and a listing enumerates
    the matching keys in ascending [Flow.compare] order. A flow's chunk
    is a fixed 100-byte structural template followed by bytes from a
    splitmix64 stream seeded with the flow key's [Flow.hash] (the
    bytes [Opennf_util.Rng.int _ 256] would draw, one per byte),
    generated in one loop over a local state; a chunk shorter than the
    template is its prefix. *)

open Opennf_net

type t

val create : ?chunk_bytes:int -> unit -> t
(** Default [chunk_bytes] = 202. *)

val impl : t -> Opennf_sb.Nf_api.impl

val seed_flows : t -> Flow.key list -> unit
(** Pre-populate per-flow state without replaying traffic. *)

val flow_count : t -> int
val imported_count : t -> int
