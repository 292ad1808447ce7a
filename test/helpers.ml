(* Shared test scaffolding: a two-instance PRADS testbed with steady
   traffic, and checkers over the audit ledger for the paper's §5.1
   safety definitions. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf

type testbed = {
  fab : Fabric.t;
  nf1 : Controller.nf;
  nf2 : Controller.nf;
  prads1 : Opennf_nfs.Prads.t;
  prads2 : Opennf_nfs.Prads.t;
  rt1 : Opennf_sb.Runtime.t;
  rt2 : Opennf_sb.Runtime.t;
  keys : Flow.key list;
  last_packet_at : float;
}

(* Two PRADS instances; [flows] flows at [rate] pps routed to nf1.
   With [shards], nf1 homes on shard 0 and nf2 on the last shard, so a
   move between them exercises the cross-shard path. *)
let prads_pair ?(seed = 7) ?(flows = 50) ?(rate = 1000.0) ?(duration = 2.0)
    ?packet_out_rate ?resilience ?shards ?obs ?monitor () =
  let fab =
    Fabric.create ~seed ?packet_out_rate ?resilience ?shards ?obs ?monitor ()
  in
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let nf1, rt1 =
    Fabric.add_nf fab ~shard:0 ~name:"prads1"
      ~impl:(Opennf_nfs.Prads.impl prads1) ~costs:Costs.prads
  in
  let nf2, rt2 =
    Fabric.add_nf fab
      ~shard:(Fabric.shards fab - 1)
      ~name:"prads2"
      ~impl:(Opennf_nfs.Prads.impl prads2) ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create ~seed:(seed + 1) () in
  let schedule, keys =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate ~start:0.05 ~duration ()
  in
  let last_packet_at = List.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 schedule in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  (* Default route: everything to nf1. *)
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  { fab; nf1; nf2; prads1; prads2; rt1; rt2; keys; last_packet_at }

(* Run a blocking operation [at] a given time, then the whole sim. *)
let run_at fab ~at body =
  Engine.schedule_at fab.Fabric.engine at (fun () ->
      Proc.spawn fab.Fabric.engine body);
  Fabric.run fab

let run_with tb ~at body = run_at tb.fab ~at body

let nf_names = [ "prads1"; "prads2" ]

let assert_loss_free ?filter tb =
  let lost = Audit.lost ?filter tb.fab.audit ~nfs:nf_names in
  Alcotest.(check (list int)) "no packet forwarded to the NFs was lost" [] lost;
  let dup = Audit.duplicated ?filter tb.fab.audit in
  Alcotest.(check (list int)) "no packet was processed twice" [] dup

let assert_order_preserved ?filter tb =
  let violations = Audit.order_violations ?filter tb.fab.audit in
  Alcotest.(check int)
    "processing order equals switch forwarding order" 0
    (List.length violations)

(* Per-flow order preservation (what LF+OP+ER guarantees for per-flow
   scope): check each moved flow independently. *)
let assert_order_preserved_per_flow tb =
  List.iter
    (fun key -> assert_order_preserved ~filter:(Filter.of_key key) tb)
    tb.keys

let total_processed tb =
  Opennf_sb.Runtime.processed_count tb.rt1
  + Opennf_sb.Runtime.processed_count tb.rt2

(* Two dummy instances ("src" seeded with [flows] distinct flows, "dst"
   empty) and no traffic: a bed for southbound gets and moves in
   isolation. *)
type dummy_bed = {
  dfab : Fabric.t;
  src : Controller.nf;
  dst : Controller.nf;
  d_src : Opennf_nfs.Dummy.t;
  d_dst : Opennf_nfs.Dummy.t;
}

let dummy_key k =
  Flow.make
    ~src:(Ipaddr.of_int (Ipaddr.to_int (Ipaddr.v 10 80 0 0) + (k mod 250) + 1))
    ~dst:(Ipaddr.v 172 31 (k / 250) 1)
    ~proto:Flow.Tcp ~sport:(20000 + k) ~dport:443 ()

let dummy_pair ?obs ~flows () =
  let dfab = Fabric.create ~seed:7 ?obs () in
  let d_src = Opennf_nfs.Dummy.create () in
  let d_dst = Opennf_nfs.Dummy.create () in
  Opennf_nfs.Dummy.seed_flows d_src (List.init flows dummy_key);
  let add name d =
    fst
      (Fabric.add_nf dfab ~name ~impl:(Opennf_nfs.Dummy.impl d)
         ~costs:Costs.dummy)
  in
  let src = add "src" d_src in
  let dst = add "dst" d_dst in
  { dfab; src; dst; d_src; d_dst }

(* Minor-heap words one call of [f] allocates, averaged over [iters]
   calls after a warm-up call (caches and one-time setup). *)
let minor_words_per ~iters f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters
