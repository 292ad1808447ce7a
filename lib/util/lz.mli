(** A small LZ77-style compressor.

    Used for the §8.3 compression experiment: the controller optionally
    compresses serialized state chunks before transfer. The format is a
    simple token stream (literal runs and back-references); it is a real
    codec — [decompress (compress s) = s] — so measured ratios on
    serialized NF state are genuine, not modelled.

    The match table and output buffer are module-level scratch reused
    across calls: lib/ runs on one domain. *)

val compress : string -> string
val decompress : string -> string
(** Raises [Invalid_argument] on malformed input. *)

val ratio : string -> float
(** [ratio s] is [compressed_size / original_size] (1.0 for empty). *)

val wire_size_with_dict : dict:string -> string -> int
(** Bytes [s] adds to a compressed stream whose window already contains
    [dict]: [|compress (dict ^ s)| - |compress dict|], floored at a small
    token minimum. Models streaming (socket-level) compression, where
    redundancy {e across} state chunks is exploited. *)

val stream_ratio : string list -> float
(** Compressed/original ratio of a whole sequence of chunks sent through
    one compressed stream (each chunk using its predecessor as
    dictionary). *)
