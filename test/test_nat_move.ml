(* End-to-end NAT integration: conntrack entries must follow their flows
   for mid-flow packets to stay valid at the destination (§7's iptables
   scenario). *)

module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf

type bed = {
  fab : Fabric.t;
  nf1 : Controller.nf;
  nf2 : Controller.nf;
  nat1 : Opennf_nfs.Nat.t;
  nat2 : Opennf_nfs.Nat.t;
  keys : Flow.key list;
}

let nat_pair ?(flows = 20) () =
  let fab = Fabric.create ~seed:37 () in
  let nat1 = Opennf_nfs.Nat.create ~port_base:20000 () in
  let nat2 = Opennf_nfs.Nat.create ~port_base:40000 () in
  let nf1, _ =
    Fabric.add_nf fab ~name:"nat1" ~impl:(Opennf_nfs.Nat.impl nat1)
      ~costs:Costs.iptables
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"nat2" ~impl:(Opennf_nfs.Nat.impl nat2)
      ~costs:Costs.iptables
  in
  let gen = Opennf_trace.Gen.create ~seed:23 () in
  let schedule, keys =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate:1000.0 ~start:0.05
      ~duration:2.0 ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  { fab; nf1; nf2; nat1; nat2; keys }

let test_lf_move_keeps_connections_valid () =
  let b = nat_pair () in
  Helpers.run_at b.fab ~at:1.0 (fun () ->
      ignore
        (Op_error.ok_exn
           (Move.run b.fab.ctrl
              (Move.spec ~src:b.nf1 ~dst:b.nf2 ~filter:Filter.any
                 ~guarantee:Move.Loss_free ~parallel:true ()))));
  (* Every mid-flow packet found a conntrack entry at the destination. *)
  Alcotest.(check int) "no invalid packets at nat2" 0
    (Opennf_nfs.Nat.invalid_count b.nat2);
  Alcotest.(check int) "all entries relocated" 20
    (Opennf_nfs.Nat.entry_count b.nat2);
  (* Translations survive the move: ports from nat1's pool, not nat2's. *)
  List.iter
    (fun key ->
      match Opennf_nfs.Nat.translation_of b.nat2 key with
      | Some port ->
        Alcotest.(check bool) "port from the original pool" true (port < 40000)
      | None -> Alcotest.fail "translation missing after move")
    b.keys

let test_reroute_without_state_breaks_connections () =
  (* The anti-baseline: flip the route without moving conntrack state and
     every subsequent packet is invalid at the new instance. *)
  let b = nat_pair () in
  Helpers.run_at b.fab ~at:1.0 (fun () ->
      Controller.set_route b.fab.ctrl Filter.any b.nf2);
  Alcotest.(check bool) "invalid packets at nat2" true
    (Opennf_nfs.Nat.invalid_count b.nat2 > 0);
  Alcotest.(check int) "no entries at nat2 (non-SYN cannot create them)" 0
    (Opennf_nfs.Nat.entry_count b.nat2)

let suite =
  [
    Alcotest.test_case "NAT: loss-free move keeps flows valid" `Quick
      test_lf_move_keeps_connections_valid;
    Alcotest.test_case "NAT: reroute-only breaks flows" `Quick
      test_reroute_without_state_breaks_connections;
  ]
