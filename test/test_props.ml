(* Randomized end-to-end properties: the §5.1 guarantees must hold for
   every workload, not just the calibrated benchmarks. Each QCheck case
   builds a fresh two-instance testbed with random flow counts, rates,
   switch timing and move timing, runs the move variant under test, and
   checks the audit ledger. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
open Opennf_net
open Opennf
module H = Helpers

type config = {
  seed : int;
  flows : int;
  rate : float;
  packet_out_rate : float;
  move_after : float;  (* Fraction of the trace before the move starts. *)
  parallel : bool;
  early_release : bool;
}

let config_gen =
  QCheck.Gen.(
    map
      (fun (seed, flows, rate_k, po_k, move_after, parallel, early_release) ->
        {
          seed;
          flows = 5 + flows;
          rate = 200.0 +. (100.0 *. float_of_int rate_k);
          packet_out_rate = 500.0 +. (500.0 *. float_of_int po_k);
          move_after = 0.2 +. (0.06 *. float_of_int move_after);
          parallel;
          early_release;
        })
      (tup7 (int_bound 10_000) (int_bound 60) (int_bound 20) (int_bound 6)
         (int_bound 9) bool bool))

let print_config c =
  Printf.sprintf
    "{seed=%d flows=%d rate=%.0f po=%.0f move@%.2f pl=%b er=%b}" c.seed c.flows
    c.rate c.packet_out_rate c.move_after c.parallel c.early_release

let config_arb = QCheck.make ~print:print_config config_gen

(* Build the bed, run the move at [at] (by default the configured point
   of the trace), return the bed. *)
let run_move_case ?at c ~guarantee =
  let tb =
    H.prads_pair ~seed:c.seed ~flows:c.flows ~rate:c.rate
      ~packet_out_rate:c.packet_out_rate ()
  in
  let handshakes = 2.0 *. float_of_int c.flows /. c.rate in
  let trace_len = handshakes +. 2.0 in
  let at =
    match at with Some at -> at | None -> 0.05 +. (c.move_after *. trace_len)
  in
  H.run_with tb ~at (fun () ->
      ignore
        (Op_error.ok_exn
           (Move.run tb.H.fab.ctrl
              (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
                 ~guarantee ~parallel:c.parallel
                 ~early_release:c.early_release ()))));
  tb

let no_loss tb =
  Audit.lost tb.H.fab.audit ~nfs:H.nf_names = []
  && Audit.duplicated tb.H.fab.audit = []

let state_fully_moved tb =
  Opennf_nfs.Prads.connection_count tb.H.prads1 = 0

let per_flow_order_kept tb =
  List.for_all
    (fun key ->
      Audit.order_violations ~filter:(Filter.of_key key) tb.H.fab.audit = [])
    tb.H.keys

let prop_loss_free_move_never_loses =
  QCheck.Test.make ~name:"loss-free move: no loss, no duplication (random)"
    ~count:25 config_arb (fun c ->
      let tb = run_move_case c ~guarantee:Move.Loss_free in
      no_loss tb && state_fully_moved tb)

let prop_op_move_preserves_order =
  QCheck.Test.make
    ~name:"order-preserving move: switch order respected (random)" ~count:20
    config_arb (fun c ->
      (* Plain OP (no early release) guarantees global ordering. *)
      let c = { c with early_release = false } in
      let tb = run_move_case c ~guarantee:Move.Order_preserving in
      no_loss tb
      && Audit.order_violations tb.H.fab.audit = []
      && Audit.arrival_order_violations tb.H.fab.audit = [])

let prop_op_er_move_preserves_per_flow_order =
  QCheck.Test.make
    ~name:"OP move with early release: per-flow order (random)" ~count:15
    config_arb (fun c ->
      let c = { c with early_release = true; parallel = true } in
      let tb = run_move_case c ~guarantee:Move.Order_preserving in
      no_loss tb && per_flow_order_kept tb)

(* Early release started while flows are still arriving: the trace's
   handshakes span [0.05, 0.05 + 2 flows/rate], and a flow first seen
   after the late-lock snapshot is the case both early-release bugs
   lived in. [window] places the move uniformly in that span extended by
   50 ms past its end. *)
let window_arb =
  let at c window =
    0.05 +. (window *. ((2.0 *. float_of_int c.flows /. c.rate) +. 0.05))
  in
  QCheck.make
    ~print:(fun (c, at) -> Printf.sprintf "%s at=%.4f" (print_config c) at)
    QCheck.Gen.(
      map
        (fun (c, window) -> ({ c with early_release = true }, at c window))
        (pair config_gen (float_bound_inclusive 1.0)))

let prop_er_move_inside_arrival_window =
  QCheck.Test.make
    ~name:"early release inside the arrival window: LF and OP (random)"
    ~count:20 window_arb (fun (c, at) ->
      let lf = run_move_case ~at c ~guarantee:Move.Loss_free in
      let op = run_move_case ~at c ~guarantee:Move.Order_preserving in
      no_loss lf && state_fully_moved lf
      && no_loss op && state_fully_moved op && per_flow_order_kept op)

let prop_ng_move_moves_state =
  QCheck.Test.make
    ~name:"no-guarantee move: state relocates, flows continue (random)"
    ~count:20 config_arb (fun c ->
      let tb = run_move_case c ~guarantee:Move.No_guarantee in
      (* No loss-freedom claim — but no duplication either, and the
         state must end up at the destination. *)
      Audit.duplicated tb.H.fab.audit = [] && state_fully_moved tb)

let prop_copy_is_non_disruptive =
  QCheck.Test.make ~name:"copy: never disturbs traffic (random)" ~count:15
    config_arb (fun c ->
      let tb =
        H.prads_pair ~seed:c.seed ~flows:c.flows ~rate:c.rate
          ~packet_out_rate:c.packet_out_rate ()
      in
      H.run_with tb ~at:0.5 (fun () ->
          ignore
            (Op_error.ok_exn
               (Copy_op.run tb.H.fab.ctrl ~src:tb.H.nf1 ~dst:tb.H.nf2
                  ~filter:Filter.any
                  ~scope:[ Opennf_state.Scope.Per; Opennf_state.Scope.Multi ]
                  ~parallel:c.parallel ())));
      no_loss tb
      && Audit.order_violations tb.H.fab.audit = []
      && Opennf_nfs.Prads.connection_count tb.H.prads1 > 0)

(* A partial-filter move: only a random half of the flows moves; the
   rest must stay untouched at the source. *)
let prop_partial_move_respects_filter =
  QCheck.Test.make ~name:"filtered move: untouched flows stay (random)"
    ~count:15 config_arb (fun c ->
      let tb =
        H.prads_pair ~seed:c.seed ~flows:(max 10 c.flows) ~rate:c.rate ()
      in
      let moved, kept =
        List.partition
          (fun (k : Flow.key) -> Ipaddr.to_int k.Flow.src_ip mod 2 = 0)
          tb.H.keys
      in
      H.run_with tb ~at:0.6 (fun () ->
          List.iter
            (fun key ->
              ignore
                (Op_error.ok_exn
                   (Move.run tb.H.fab.ctrl
                      (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2
                         ~filter:(Filter.of_key key) ~guarantee:Move.Loss_free
                         ~parallel:c.parallel ()))))
            moved);
      no_loss tb
      && Opennf_nfs.Prads.connection_count tb.H.prads1 = List.length kept
      && Opennf_nfs.Prads.connection_count tb.H.prads2 = List.length moved)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_loss_free_move_never_loses;
      prop_op_move_preserves_order;
      prop_op_er_move_preserves_per_flow_order;
      prop_er_move_inside_arrival_window;
      prop_ng_move_moves_state;
      prop_copy_is_non_disruptive;
      prop_partial_move_respects_filter;
      Test_backend.prop_sent_keys_match_model;
    ]
