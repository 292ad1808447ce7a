(* The §5.1.2 motivation, end to end: a redundancy-elimination decoder
   is moved between instances while encoded traffic flows. A loss-free
   move may reorder packets, letting a reference overtake the data
   packet it was encoded against — the decoder silently drops it and its
   store diverges. An order-preserving move never does. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf

let ip = Ipaddr.v

(* Pre-encode a packet schedule: every payload repeats once, so the
   second occurrence becomes a reference to the first. *)
let encoded_schedule gen ~flows ~rate ~start ~duration =
  let enc = Opennf_nfs.Re_codec.Encoder.create () in
  let keys =
    List.init flows (fun i ->
        Flow.make ~src:(ip 10 1 0 (1 + i)) ~dst:(ip 172 16 0 1)
          ~sport:(10000 + i) ~dport:80 ())
  in
  let keys_arr = Array.of_list keys in
  let interval = 1.0 /. rate in
  let total = int_of_float (duration *. rate) in
  let schedule = ref [] in
  for n = 0 to total - 1 do
    let key = keys_arr.(n mod flows) in
    (* Each payload value reappears 20 packets after its first sighting,
       so a reordering window anywhere in the stream splits many
       data/reference pairs. *)
    let raw =
      Printf.sprintf "content-block-%d"
        (if n mod 40 < 20 then n else n - 20)
    in
    let payload = Opennf_nfs.Re_codec.Encoder.encode_payload enc raw in
    schedule :=
      Opennf_trace.Gen.packet gen
        ~at:(start +. (float_of_int n *. interval))
        ~key ~seq:n ~payload ()
      :: !schedule
  done;
  (List.rev !schedule, keys)

let run_case ~guarantee =
  let fab = Fabric.create ~seed:29 ~packet_out_rate:600.0 () in
  let dec1 = Opennf_nfs.Re_codec.Decoder.create () in
  let dec2 = Opennf_nfs.Re_codec.Decoder.create () in
  let nf1, _ =
    Fabric.add_nf fab ~name:"dec1" ~impl:(Opennf_nfs.Re_codec.Decoder.impl dec1)
      ~costs:Costs.dummy
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"dec2" ~impl:(Opennf_nfs.Re_codec.Decoder.impl dec2)
      ~costs:Costs.dummy
  in
  let gen = Opennf_trace.Gen.create ~seed:31 () in
  let schedule, _keys =
    encoded_schedule gen ~flows:20 ~rate:3000.0 ~start:0.05 ~duration:2.0
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  Engine.schedule_at fab.engine 1.0 (fun () ->
      Proc.spawn fab.engine (fun () ->
          (* The decoder's fingerprint store is all-flows state: include
             it in the move's scope so the snapshot is taken after the
             source stops processing. *)
          ignore
            (Op_error.ok_exn
               (Move.run fab.ctrl
                  (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any ~guarantee
                     ~scope:[ Opennf_state.Scope.Per; Opennf_state.Scope.All ]
                     ~parallel:true ())))));
  Fabric.run fab;
  ( Opennf_nfs.Re_codec.Decoder.desync_count dec1
    + Opennf_nfs.Re_codec.Decoder.desync_count dec2,
    Audit.lost fab.audit ~nfs:[ "dec1"; "dec2" ] )

let test_loss_free_move_desyncs_decoder () =
  let desyncs, lost = run_case ~guarantee:Move.Loss_free in
  Alcotest.(check (list int)) "still loss-free" [] lost;
  Alcotest.(check bool)
    "reordering broke the decoder (references overtook data)" true
    (desyncs > 0)

let test_order_preserving_move_keeps_decoder_in_sync () =
  let desyncs, lost = run_case ~guarantee:Move.Order_preserving in
  Alcotest.(check (list int)) "loss-free" [] lost;
  Alcotest.(check int) "no desync" 0 desyncs

let suite =
  [
    Alcotest.test_case "LF move desyncs the RE decoder" `Quick
      test_loss_free_move_desyncs_decoder;
    Alcotest.test_case "OP move keeps the RE decoder in sync" `Quick
      test_order_preserving_move_keeps_decoder_in_sync;
  ]
