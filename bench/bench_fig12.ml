(* Figure 12 and §8.2.1: southbound API efficiency per NF.

   (a) getPerflow time vs number of flows (linear; Bro slowest, iptables
       cheapest);
   (b) putPerflow time (at least ~2x faster than getPerflow);
   and the per-packet processing latency increase while an export runs
   (paper: PRADS +5.8% relative, Bro +0.12 ms absolute — both small). *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
module Scope = Opennf_state.Scope
open Opennf_net
open Opennf
module H = Harness

type nf_kind = Iptables | Prads | Bro

let kind_label = function
  | Iptables -> "iptables"
  | Prads -> "PRADS"
  | Bro -> "Bro"

let make_impl = function
  | Iptables -> Opennf_nfs.Nat.impl (Opennf_nfs.Nat.create ())
  | Prads -> Opennf_nfs.Prads.impl (Opennf_nfs.Prads.create ())
  | Bro -> Opennf_nfs.Ids.impl (Opennf_nfs.Ids.create ())

let costs_of = function
  | Iptables -> Costs.iptables
  | Prads -> Costs.prads
  | Bro -> Costs.bro

(* Warm [flows] flows into nf1, then time get on nf1 and put on nf2. *)
let get_put_times kind ~flows =
  let fab = Fabric.create ~seed:(300 + flows) () in
  let nf1, _ =
    Fabric.add_nf fab ~name:"a" ~impl:(make_impl kind) ~costs:(costs_of kind)
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"b" ~impl:(make_impl kind) ~costs:(costs_of kind)
  in
  let gen = Opennf_trace.Gen.create ~seed:2 () in
  let schedule, _ =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate:1000.0 ~start:0.05
      ~duration:(float_of_int flows /. 400.0)
      ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  let results = ref (0.0, 0.0) in
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl Filter.any nf1);
  let start_at = (float_of_int flows /. 400.0) +. 2.0 in
  H.run_at fab ~at:start_at (fun () ->
      let t0 = Engine.now fab.engine in
      let chunks =
        Op_error.ok_exn
          (Controller.get fab.ctrl nf1 ~scope:Scope.Per Filter.any)
      in
      let t1 = Engine.now fab.engine in
      Op_error.ok_exn (Controller.put fab.ctrl nf2 ~scope:Scope.Per chunks);
      let t2 = Engine.now fab.engine in
      assert (List.length chunks = flows);
      results := (t1 -. t0, t2 -. t1));
  !results

(* §8.2.1: per-packet processing latency with and without a concurrent
   getPerflow. *)
let packet_latency_impact kind =
  let fab = Fabric.create ~seed:9 () in
  let nf1, _ =
    Fabric.add_nf fab ~name:"a" ~impl:(make_impl kind) ~costs:(costs_of kind)
  in
  let gen = Opennf_trace.Gen.create ~seed:4 () in
  let schedule, _ =
    Opennf_trace.Gen.steady_flows gen ~flows:100 ~rate:200.0 ~start:0.05
      ~duration:8.0 ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl Filter.any nf1);
  let window = ref (0.0, 0.0) in
  H.run_at fab ~at:4.0 (fun () ->
      let t0 = Engine.now fab.engine in
      ignore
        (Op_error.ok_exn
           (Controller.get fab.ctrl nf1 ~scope:Scope.Per Filter.any));
      window := (t0, Engine.now fab.engine));
  let audit = fab.audit in
  let normal = Opennf_util.Stats.Summary.create () in
  let during = Opennf_util.Stats.Summary.create () in
  let w0, w1 = !window in
  List.iter
    (fun pkt ->
      match (Audit.process_time audit ~pkt, Audit.added_latency audit ~pkt) with
      | Some t, Some l ->
        if t >= w0 && t <= w1 then Opennf_util.Stats.Summary.add during l
        else Opennf_util.Stats.Summary.add normal l
      | _ -> ())
    (Audit.processed_order audit);
  (normal, during)

let flow_counts = [ 250; 500; 1000 ]

let run () =
  H.section "Figure 12(a,b): getPerflow / putPerflow time (ms) vs #flows";
  let rows =
    List.concat_map
      (fun kind ->
        List.map
          (fun flows ->
            let get_t, put_t = get_put_times kind ~flows in
            [
              kind_label kind;
              string_of_int flows;
              H.ms get_t;
              H.ms put_t;
              Printf.sprintf "%.1fx" (get_t /. put_t);
            ])
          flow_counts)
      [ Iptables; Prads; Bro ]
  in
  H.table
    ~header:[ "NF"; "flows"; "get(ms)"; "put(ms)"; "get/put" ]
    rows;
  H.note
    "Expected shape: linear in #flows; put at least ~2x faster than get; \
     Bro slowest (largest state), iptables cheapest. (Paper: PRADS \
     get(500)~89ms put(500)~54ms; Bro get(1000)~1000ms.)";
  H.section "§8.2.1: per-packet latency during state export";
  let module S = Opennf_util.Stats.Summary in
  let rows =
    List.map
      (fun kind ->
        let normal, during = packet_latency_impact kind in
        let n = S.mean normal and d = S.mean during in
        [
          kind_label kind;
          H.ms n;
          H.ms d;
          Printf.sprintf "+%.1f%%" (100.0 *. ((d /. n) -. 1.0));
        ])
      [ Prads; Bro ]
  in
  H.table
    ~header:[ "NF"; "normal(ms)"; "during export(ms)"; "increase" ]
    rows;
  H.note
    "Expected shape: small single-digit-percent increase (paper: PRADS \
     +5.8%%, Bro +0.12ms ~ +1.7%%)."

let () =
  H.register ~id:"fig12" ~descr:"southbound get/put times; export impact" run
