(* The replicated primary's delta capture as it kept its sent-key
   record in two boxed-flowid tables: one per scope, keyed by the
   directed flowid [note_packet] exported. A put records its flowid, and
   a vanished key becomes a delete only if its own flowid was recorded.
   Returns the entries of one packet in the order the backend pushes
   them. Same entry stream as [Opennf_state.Backend.note_packet]. *)

open Opennf_net
module Scope = Opennf_state.Scope
module Chunk = Opennf_state.Chunk

type t = { per : unit Filter.Table.t; multi : unit Filter.Table.t }

let create () = { per = Filter.Table.create 16; multi = Filter.Table.create 16 }

let export_key t export scope flowid =
  let sent = match scope with Scope.Per -> t.per | _ -> t.multi in
  match export scope flowid with
  | Some chunk ->
    Filter.Table.replace sent flowid ();
    [ (scope, flowid, Some chunk) ]
  | None ->
    if Filter.Table.mem sent flowid then begin
      Filter.Table.remove sent flowid;
      [ (scope, flowid, None) ]
    end
    else []

let note_packet t
    (export : Scope.t -> Filter.t -> Chunk.t option) (key : Flow.key) =
  let per = export_key t export Scope.Per (Filter.of_key key) in
  let src = export_key t export Scope.Multi (Filter.of_src_host key.Flow.src_ip) in
  let dst =
    if Ipaddr.equal key.Flow.dst_ip key.Flow.src_ip then []
    else export_key t export Scope.Multi (Filter.of_src_host key.Flow.dst_ip)
  in
  per @ src @ dst
