(* Figure 11: impact of packet rate and number of per-flow states.

   (a) packets dropped during a parallelized no-guarantee move — grows
       linearly with packet rate;
   (b) total time of a parallelized loss-free move — grows with rate
       because flushing buffered events is limited by the switch's
       packet-out rate, and with the number of flows. *)

module Runtime = Opennf_sb.Runtime
open Opennf
module H = Harness

let flow_counts = [ 250; 500; 1000 ]
let rates = [ 500.0; 2500.0; 5000.0; 7500.0; 10000.0 ]

let run_once ~flows ~rate ~guarantee =
  let bed = H.prads_bed ~flows ~rate () in
  let report = ref None in
  H.run_at bed.H.fab ~at:bed.H.move_at (fun () ->
      let spec =
        Move.spec ~src:bed.H.nf1 ~dst:bed.H.nf2
          ~filter:Opennf_net.Filter.any ~guarantee ~parallel:true ()
      in
      report := Some (Op_error.ok_exn (Move.run bed.H.fab.ctrl spec)));
  (Option.get !report, Runtime.tombstone_dropped bed.H.rt1)

let sweep ~guarantee ~metric =
  List.map
    (fun rate ->
      string_of_int (int_of_float rate)
      :: List.map
           (fun flows ->
             let report, drops = run_once ~flows ~rate ~guarantee in
             metric report drops)
           flow_counts)
    rates

let header = "rate(pkt/s)" :: List.map (fun f -> Printf.sprintf "%d flows" f) flow_counts

let run () =
  H.section "Figure 11(a): drops during a parallelized no-guarantee move";
  H.table ~header
    (sweep ~guarantee:Move.No_guarantee ~metric:(fun _ drops ->
         string_of_int drops));
  H.note "Expected shape: drops grow ~linearly with packet rate.";
  H.section "Figure 11(b): total time (ms) of a parallelized loss-free move";
  H.table ~header
    (sweep ~guarantee:Move.Loss_free ~metric:(fun report _ ->
         H.ms (Move.duration report)));
  H.note
    "Expected shape: time grows with flow count (state transfer) and \
     with rate (packet-out-bound event flush)."

let () =
  H.register ~id:"fig11" ~descr:"move drops & time vs rate and flow count" run
