(** Ordered map over a runtime comparator.

    The shared always-sorted structure behind the stores' scoped
    enumeration and the flow table's key dedup: a height-balanced tree
    (stdlib [Map] balancing) in a mutable cell, so updates are O(log n)
    in place while enumeration is an in-order walk — the exact order
    [List.sort cmp] used to produce, without a per-query sort. The tree
    itself is persistent: a walk in progress is unaffected by later
    [set]/[remove] on the container. *)

type ('k, 'v) t

val create : cmp:('k -> 'k -> int) -> ('k, 'v) t
val set : ('k, 'v) t -> 'k -> 'v -> unit
val remove : ('k, 'v) t -> 'k -> unit
val find_opt : ('k, 'v) t -> 'k -> 'v option

val fold_asc : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Ascending key order: leftmost binding is combined first. *)

val fold_desc : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Descending key order — prepending under this fold yields an
    ascending list with no sort and no reversal. *)

val cardinal : ('k, 'v) t -> int
val to_alist : ('k, 'v) t -> ('k * 'v) list
val is_empty : ('k, 'v) t -> bool

val sort_uniq : cmp:('k -> 'k -> int) -> 'k list -> 'k list
(** [List.sort_uniq cmp] via the same tree, for small key lists that
    need deduplicated ordered enumeration. *)
