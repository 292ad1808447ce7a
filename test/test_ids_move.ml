(* The §2.1 "always up-to-date NFs" scenario end to end: an IDS is
   upgraded mid-HTTP-download by moving active flows to the new
   instance. The guarantee level decides whether the IDS stays accurate:

   - a move without guarantees drops mid-move packets, corrupting the
     reply digest — the malware goes undetected;
   - a loss-free move relays every packet — the malware is caught;
   - reordered relays (loss-free without order preservation, slow
     packet-out path) provoke the false "SYN_inside_connection" weird
     alert on flows whose SYN is still in flight; an order-preserving
     move stays silent. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf

let ip = Ipaddr.v

let ids_bed ?packet_out_rate ~malware () =
  let fab = Fabric.create ~seed:47 ?packet_out_rate () in
  let ids1 = Opennf_nfs.Ids.create ~malware () in
  let ids2 = Opennf_nfs.Ids.create ~malware () in
  let nf1, _ =
    Fabric.add_nf fab ~name:"bro1" ~impl:(Opennf_nfs.Ids.impl ids1) ~costs:Costs.bro
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"bro2" ~impl:(Opennf_nfs.Ids.impl ids2) ~costs:Costs.bro
  in
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  (fab, ids1, ids2, nf1, nf2)

let malware_alerts ids =
  List.filter
    (function Opennf_nfs.Ids.Malware _ -> true | _ -> false)
    (Opennf_nfs.Ids.alert_log ids)

let weird_alerts ids =
  List.filter
    (function Opennf_nfs.Ids.Weird _ -> true | _ -> false)
    (Opennf_nfs.Ids.alert_log ids)

(* A slow malware download that straddles the move at t=0.5. *)
let inject_download fab gen body =
  List.iter (fun (at, p) -> Fabric.inject_at fab at p)
    (Opennf_trace.Gen.http_session gen ~client:(ip 10 0 0 7)
       ~server:(ip 203 0 113 80) ~sport:34000 ~start:0.2 ~url:"/payload"
       ~body ~gap:0.01 ())

let upgrade fab nf1 nf2 ~guarantee =
  Helpers.run_at fab ~at:0.5 (fun () ->
      ignore
        (Op_error.ok_exn
           (Move.run fab.Fabric.ctrl
              (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any ~guarantee
                 ~parallel:true ()))))

let test_upgrade_without_guarantees_misses_malware () =
  let body, digest = Opennf_trace.Gen.malware_body 60_000 in
  let fab, ids1, ids2, nf1, nf2 = ids_bed ~malware:[ digest ] () in
  let gen = Opennf_trace.Gen.create ~seed:2 () in
  inject_download fab gen body;
  upgrade fab nf1 nf2 ~guarantee:Move.No_guarantee;
  Alcotest.(check int) "malware missed everywhere" 0
    (List.length (malware_alerts ids1) + List.length (malware_alerts ids2))

let test_upgrade_loss_free_catches_malware () =
  let body, digest = Opennf_trace.Gen.malware_body 60_000 in
  let fab, _ids1, ids2, nf1, nf2 = ids_bed ~malware:[ digest ] () in
  let gen = Opennf_trace.Gen.create ~seed:2 () in
  inject_download fab gen body;
  upgrade fab nf1 nf2 ~guarantee:Move.Loss_free;
  Alcotest.(check bool) "malware caught at the upgraded instance" true
    (malware_alerts ids2 <> [])

(* Many flows whose SYNs are in flight when a loss-free move reorders
   relays behind direct packets: data processed before SYN ⇒ false weird
   alerts. The same setup under order preservation raises none. *)
let syn_storm fab gen =
  (* Each flow: SYN at t, first data 2 ms later — the move window at
     t=0.5 catches many pairs. *)
  List.iteri
    (fun i start0 ->
      let key =
        Flow.make ~src:(ip 10 0 1 (1 + i)) ~dst:(ip 203 0 113 80)
          ~sport:(30000 + i) ~dport:80 ()
      in
      let start = 0.40 +. start0 in
      List.iter (fun (at, p) -> Fabric.inject_at fab at p)
        [ Opennf_trace.Gen.packet gen ~at:start ~key ~flags:[ Syn ] ();
          Opennf_trace.Gen.packet gen ~at:(start +. 0.002) ~key ~seq:1
            ~payload:"x" () ])
    (List.init 60 (fun i -> 0.004 *. float_of_int i))

let run_syn_storm ~guarantee =
  let fab, ids1, ids2, nf1, nf2 =
    ids_bed ~packet_out_rate:400.0 ~malware:[] ()
  in
  let gen = Opennf_trace.Gen.create ~seed:3 () in
  syn_storm fab gen;
  upgrade fab nf1 nf2 ~guarantee;
  List.length (weird_alerts ids1) + List.length (weird_alerts ids2)

let test_loss_free_reordering_causes_false_alerts () =
  Alcotest.(check bool) "false SYN_inside_connection alerts" true
    (run_syn_storm ~guarantee:Move.Loss_free > 0)

let test_order_preserving_upgrade_stays_silent () =
  Alcotest.(check int) "no false alerts" 0
    (run_syn_storm ~guarantee:Move.Order_preserving)

let suite =
  [
    Alcotest.test_case "NG upgrade misses malware" `Quick
      test_upgrade_without_guarantees_misses_malware;
    Alcotest.test_case "LF upgrade catches malware" `Quick
      test_upgrade_loss_free_catches_malware;
    Alcotest.test_case "LF reordering raises false weird alerts" `Quick
      test_loss_free_reordering_causes_false_alerts;
    Alcotest.test_case "OP upgrade raises none" `Quick
      test_order_preserving_upgrade_stays_silent;
  ]
