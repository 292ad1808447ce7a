(* The seed's fold-filter-sort enumeration over each store's hash-table
   [fold] (for the arena store: its live rows), ignoring the exact-key
   and pinned-host probes and the arena's packed-key sort. Same results
   as the stores' [matching]. *)

open Opennf_net
module S = Opennf_state.Store

let perflow_matching store filter =
  S.Perflow.fold store ~init:[] ~f:(fun k v acc ->
      if Filter.matches_flow filter k then (k, v) :: acc else acc)
  |> List.sort (fun (a, _) (b, _) -> Flow.compare a b)

let per_host_matching store filter =
  S.Per_host.fold store ~init:[] ~f:(fun ip v acc ->
      if Filter.matches_host filter ip then (ip, v) :: acc else acc)
  |> List.sort (fun (a, _) (b, _) -> Ipaddr.compare a b)

let keyed_matching store ~relevant filter =
  S.Keyed.fold store ~init:[] ~f:(fun k v acc ->
      if relevant filter k v then (k, v) :: acc else acc)
  |> List.sort compare

let perflow_arena_matching store filter =
  let acc = ref [] in
  Opennf_util.Arena.iter_rows (S.Perflow_arena.arena store) (fun h _ _ ->
      let k = S.Perflow_arena.key_of store h in
      if Filter.matches_flow filter k then acc := (k, h) :: !acc);
  List.sort (fun (a, _) (b, _) -> Flow.compare a b) !acc
