(* The unindexed flow table: a linear scan over every installed rule,
   bypassing the exact index, the priority buckets and the decision
   cache. [Flowtable.rules] lists the newest rule first, so keeping the
   first match of the highest priority makes the newest win ties —
   {!Opennf_net.Flowtable.lookup}'s rule. Leaves [matched] alone. *)

open Opennf_net

let lookup table p =
  List.fold_left
    (fun best (r : Flowtable.rule) ->
      if not (List.exists (fun f -> Filter.matches_packet f p) r.filters) then
        best
      else
        match best with
        | Some (b : Flowtable.rule) when b.priority >= r.priority -> best
        | _ -> Some r)
    None (Flowtable.rules table)
