module Proc = Opennf_sim.Proc
module Scope = Opennf_state.Scope
open Opennf_net
open Opennf

type sync_pair = { a : Controller.nf; b : Controller.nf }

type t = {
  ctrl : Controller.t;
  mutable assignment : (Controller.nf * Ipaddr.Prefix.t list) list;
  sync_period : float;
  mutable sync_pairs : sync_pair list;
  mutable syncs : int;
  mutable stopped : bool;
}

let prefix_filter prefix = Filter.of_src_prefix prefix

(* Copies and moves here run in fault-free scenarios; a typed error is
   a wiring bug, surfaced loudly by [Op_error.ok_exn]. *)
let copy t ~src ~dst ~filter ~scope =
  Op_error.ok_exn (Copy_op.run t.ctrl ~src ~dst ~filter ~scope ())

let create ctrl ~instances ?(sync_period = 60.0) () =
  let t =
    {
      ctrl;
      assignment = instances;
      sync_period;
      sync_pairs = [];
      syncs = 0;
      stopped = false;
    }
  in
  List.iter
    (fun (nf, prefixes) ->
      List.iter
        (fun prefix -> Controller.set_route ctrl (prefix_filter prefix) nf)
        prefixes)
    instances;
  t

let owner_of t prefix =
  List.find_opt (fun (_, ps) -> List.mem prefix ps) t.assignment

let same_nf a b = Controller.nf_name a = Controller.nf_name b

(* Keep scan counters eventually consistent between two instances that
   have exchanged a prefix: copy multi-flow state in both directions
   every period (Figure 8, lines 4-7). *)
let start_sync_loop t pair =
  Proc.spawn (Controller.engine t.ctrl) (fun () ->
      let rec loop () =
        Proc.sleep t.sync_period;
        if not t.stopped then begin
          ignore
            (copy t ~src:pair.a ~dst:pair.b ~filter:Filter.any
               ~scope:[ Scope.Multi ]);
          ignore
            (copy t ~src:pair.b ~dst:pair.a ~filter:Filter.any
               ~scope:[ Scope.Multi ]);
          t.syncs <- t.syncs + 1;
          loop ()
        end
      in
      loop ())

let ensure_sync_pair t a b =
  let have =
    List.exists
      (fun p -> (same_nf p.a a && same_nf p.b b) || (same_nf p.a b && same_nf p.b a))
      t.sync_pairs
  in
  if not have then begin
    let pair = { a; b } in
    t.sync_pairs <- pair :: t.sync_pairs;
    start_sync_loop t pair
  end

let move_prefix t prefix ~to_ =
  match owner_of t prefix with
  | None -> invalid_arg "Lb_monitor.move_prefix: unknown prefix"
  | Some (old_inst, _) when same_nf old_inst to_ ->
    invalid_arg "Lb_monitor.move_prefix: prefix already there"
  | Some (old_inst, _) ->
    let filter = prefix_filter prefix in
    (* Copy (not move) the multi-flow state: scan counters are kept per
       <external IP, port> and may matter to flows of other prefixes. *)
    ignore
      (copy t ~src:old_inst ~dst:to_ ~filter ~scope:[ Scope.Multi ]);
    (* Loss-free (but not order-preserving) move of the per-flow state:
       reordering only delays scan detection (§6). *)
    let spec =
      Move.spec ~src:old_inst ~dst:to_ ~filter ~scope:[ Scope.Per ]
        ~guarantee:Move.Loss_free ~parallel:true ()
    in
    let report = Op_error.ok_exn (Move.run t.ctrl spec) in
    let target_known = List.exists (fun (nf, _) -> same_nf nf to_) t.assignment in
    t.assignment <-
      List.map
        (fun (nf, ps) ->
          if same_nf nf old_inst then (nf, List.filter (fun p -> p <> prefix) ps)
          else if same_nf nf to_ then (nf, prefix :: ps)
          else (nf, ps))
        t.assignment;
    if not target_known then t.assignment <- (to_, [ prefix ]) :: t.assignment;
    ensure_sync_pair t old_inst to_;
    report

let assignment t =
  List.map (fun (nf, ps) -> (Controller.nf_name nf, ps)) t.assignment

let syncs_performed t = t.syncs
let stop t = t.stopped <- true
