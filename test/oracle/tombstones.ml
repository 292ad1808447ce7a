(* The runtime's original moved-away markers: one list of flowids,
   scanned on every unclaimed packet and filtered on every import.
   Same results as [Opennf_sb.Tombstones]. *)

open Opennf_net

type t = Filter.t list ref

let create () : t = ref []
let add t flowid = t := flowid :: !t
let matches t k = List.exists (fun f -> Filter.matches_flow f k) !t

let clear_for t flowid =
  t := List.filter (fun f -> not (Filter.accepts_flowid f flowid)) !t
