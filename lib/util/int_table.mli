(** Hash tables keyed by ints (packet ids, request ids, subscription
    ids), hashed by the int itself: no [caml_hash] call per lookup, and
    ids drawn from a counter fill the buckets evenly. Iteration order
    differs from a polymorphic [Hashtbl]'s, so callers whose output
    follows it sort first. *)

include Hashtbl.S with type key = int
