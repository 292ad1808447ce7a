open Opennf_net

(* A flowid that pins a full 5-tuple and carries no application field
   goes in [exact] under its canonical key: for such a flowid both
   questions asked of a marker reduce to equality of canonical keys.
   [Filter.matches_flow] matches the key or its reverse, and
   [Filter.accepts_flowid] against an exact flowid compares all five
   fields in either direction (the TCP flag is ignored by both). The
   table hashes and compares keys with [Flow.hash] and [Flow.equal], not
   the polymorphic hash and compare; its iteration order is never
   observed. Adds are queued in [pending] and sorted into [exact] or
   [wide] by the next query, so deleting state costs a cons. *)
type t = {
  exact : unit Flow.Table.t;
  mutable wide : Filter.t list;
  mutable pending : Filter.t list;
}

let create () = { exact = Flow.Table.create 16; wide = []; pending = [] }
let add t flowid = t.pending <- flowid :: t.pending

let index t =
  List.iter
    (fun flowid ->
      match Filter.exact_key flowid with
      | Some k when flowid.Filter.app = None ->
        Flow.Table.replace t.exact (Flow.canonical k) ()
      | Some _ | None -> t.wide <- flowid :: t.wide)
    t.pending;
  t.pending <- []

let matches t k =
  if t.pending <> [] then index t;
  (Flow.Table.length t.exact > 0 && Flow.Table.mem t.exact (Flow.canonical k))
  ||
  match t.wide with
  | [] -> false
  | wide -> List.exists (fun f -> Filter.matches_flow f k) wide

let clear_for t flowid =
  if t.pending <> [] then index t;
  if Flow.Table.length t.exact > 0 then begin
    match Filter.exact_key flowid with
    | Some k -> Flow.Table.remove t.exact (Flow.canonical k)
    | None ->
      (* A wider flowid: test each exact marker as the filter it was. *)
      Flow.Table.filter_map_inplace
        (fun k () ->
          if Filter.accepts_flowid (Filter.of_key k) flowid then None
          else Some ())
        t.exact
  end;
  if t.wide <> [] then
    t.wide <- List.filter (fun f -> not (Filter.accepts_flowid f flowid)) t.wide
