(* Ordered map over a runtime comparator — the shared always-sorted
   structure behind every store's scoped enumeration (and the flow
   table's key dedup). A height-balanced tree in the style of the
   stdlib [Map] keeps updates O(log n) while enumeration is an in-order
   walk: callers get the exact order [List.sort cmp] used to produce,
   without materializing and re-sorting on every query.

   The container is a mutable cell around a persistent tree, so stores
   mutate it in place alongside their hash tables; the tree itself is
   immutable and safe to walk while the container is later updated. *)

type ('k, 'v) tree =
  | Empty
  | Node of {
      l : ('k, 'v) tree;
      k : 'k;
      v : 'v;
      r : ('k, 'v) tree;
      h : int;
    }

type ('k, 'v) t = { cmp : 'k -> 'k -> int; mutable root : ('k, 'v) tree }

let create ~cmp = { cmp; root = Empty }
let height = function Empty -> 0 | Node n -> n.h

let mk l k v r =
  Node { l; k; v; r; h = 1 + Stdlib.max (height l) (height r) }

let bal l k v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Empty -> invalid_arg "Omap.bal"
    | Node { l = ll; k = lk; v = lv; r = lr; _ } ->
      if height ll >= height lr then mk ll lk lv (mk lr k v r)
      else (
        match lr with
        | Empty -> invalid_arg "Omap.bal"
        | Node { l = lrl; k = lrk; v = lrv; r = lrr; _ } ->
          mk (mk ll lk lv lrl) lrk lrv (mk lrr k v r))
  else if hr > hl + 2 then
    match r with
    | Empty -> invalid_arg "Omap.bal"
    | Node { l = rl; k = rk; v = rv; r = rr; _ } ->
      if height rr >= height rl then mk (mk l k v rl) rk rv rr
      else (
        match rl with
        | Empty -> invalid_arg "Omap.bal"
        | Node { l = rll; k = rlk; v = rlv; r = rlr; _ } ->
          mk (mk l k v rll) rlk rlv (mk rlr rk rv rr))
  else mk l k v r

let rec add_tree cmp x data = function
  | Empty -> Node { l = Empty; k = x; v = data; r = Empty; h = 1 }
  | Node { l; k; v; r; h } as t ->
    let c = cmp x k in
    if c = 0 then if v == data then t else Node { l; k = x; v = data; r; h }
    else if c < 0 then
      let l' = add_tree cmp x data l in
      if l == l' then t else bal l' k v r
    else
      let r' = add_tree cmp x data r in
      if r == r' then t else bal l k v r'

let rec min_binding = function
  | Empty -> invalid_arg "Omap.min_binding"
  | Node { l = Empty; k; v; _ } -> (k, v)
  | Node { l; _ } -> min_binding l

let rec remove_min_binding = function
  | Empty -> invalid_arg "Omap.remove_min_binding"
  | Node { l = Empty; r; _ } -> r
  | Node { l; k; v; r; _ } -> bal (remove_min_binding l) k v r

let merge_trees t1 t2 =
  match (t1, t2) with
  | Empty, t | t, Empty -> t
  | _, _ ->
    let k, v = min_binding t2 in
    bal t1 k v (remove_min_binding t2)

let rec remove_tree cmp x = function
  | Empty -> Empty
  | Node { l; k; v; r; _ } as t ->
    let c = cmp x k in
    if c = 0 then merge_trees l r
    else if c < 0 then
      let l' = remove_tree cmp x l in
      if l == l' then t else bal l' k v r
    else
      let r' = remove_tree cmp x r in
      if r == r' then t else bal l k v r'

let set t k v = t.root <- add_tree t.cmp k v t.root
let remove t k = t.root <- remove_tree t.cmp k t.root

let find_opt t x =
  let rec go = function
    | Empty -> None
    | Node { l; k; v; r; _ } ->
      let c = t.cmp x k in
      if c = 0 then Some v else go (if c < 0 then l else r)
  in
  go t.root

let rec fold_asc_tree f tree acc =
  match tree with
  | Empty -> acc
  | Node { l; k; v; r; _ } -> fold_asc_tree f r (f k v (fold_asc_tree f l acc))

let rec fold_desc_tree f tree acc =
  match tree with
  | Empty -> acc
  | Node { l; k; v; r; _ } -> fold_desc_tree f l (f k v (fold_desc_tree f r acc))

(* Ascending key order: leftmost binding is combined first. *)
let fold_asc f t init = fold_asc_tree f t.root init

(* Descending key order — prepending under this fold yields an
   ascending list with no sort and no reversal. *)
let fold_desc f t init = fold_desc_tree f t.root init

let cardinal t = fold_asc (fun _ _ n -> n + 1) t 0
let to_alist t = fold_desc (fun k v acc -> (k, v) :: acc) t []
let is_empty t = t.root = Empty

(* [List.sort_uniq cmp] via the same tree: used where small key lists
   need deduplicated ordered enumeration (e.g. flow-table exact keys). *)
let sort_uniq ~cmp keys =
  let tree =
    List.fold_left (fun acc k -> add_tree cmp k () acc) Empty keys
  in
  fold_desc_tree (fun k () acc -> k :: acc) tree []
