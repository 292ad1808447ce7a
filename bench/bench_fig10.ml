(* Figure 10: efficiency of move with guarantees and optimizations.
   Two PRADS instances, 500 flows at 2500 packets/s; move everything.

   (a) total move time for NG, NG+PL, LF+PL, LF+PL+ER, LF+OP+PL+ER
       (paper: 193 / 134 / 218 / ~215 / 426 ms);
   (b) average and maximum added per-packet latency for packets caught
       by the move (paper: LF+PL 185 ms max; ER cuts the average 63%). *)

module Runtime = Opennf_sb.Runtime
open Opennf
module H = Harness

type config = {
  label : string;
  guarantee : Move.guarantee;
  parallel : bool;
  early_release : bool;
  paper_ms : string;
}

let configs =
  [
    { label = "NG"; guarantee = Move.No_guarantee; parallel = false;
      early_release = false; paper_ms = "193" };
    { label = "NG PL"; guarantee = Move.No_guarantee; parallel = true;
      early_release = false; paper_ms = "134" };
    { label = "LF PL"; guarantee = Move.Loss_free; parallel = true;
      early_release = false; paper_ms = "218" };
    { label = "LF PL+ER"; guarantee = Move.Loss_free; parallel = true;
      early_release = true; paper_ms = "~215" };
    { label = "LF+OP PL+ER"; guarantee = Move.Order_preserving;
      parallel = true; early_release = true; paper_ms = "426" };
  ]

let run_config cfg =
  let bed = H.prads_bed () in
  let report = ref None in
  H.run_at bed.H.fab ~at:bed.H.move_at (fun () ->
      let spec =
        Move.spec ~src:bed.H.nf1 ~dst:bed.H.nf2
          ~filter:Opennf_net.Filter.any ~guarantee:cfg.guarantee
          ~parallel:cfg.parallel ~early_release:cfg.early_release ()
      in
      report := Some (Op_error.ok_exn (Move.run bed.H.fab.ctrl spec)));
  let report = Option.get !report in
  let lat = H.affected_latency bed.H.fab.audit in
  let drops = Runtime.tombstone_dropped bed.H.rt1 in
  (report, lat, drops)

let run () =
  H.section
    "Figure 10: move efficiency with guarantees (500 flows, 2500 pkt/s)";
  let rows =
    List.map
      (fun cfg ->
        let report, lat, drops = run_config cfg in
        let module S = Opennf_util.Stats.Summary in
        [
          cfg.label;
          H.ms (Move.duration report);
          cfg.paper_ms;
          string_of_int drops;
          string_of_int report.Move.relayed;
          (if S.count lat = 0 then "-" else H.ms (S.mean lat));
          (if S.count lat = 0 then "-" else H.ms (S.max lat));
        ])
      configs
  in
  H.table
    ~header:
      [
        "config"; "total(ms)"; "paper(ms)"; "dropped"; "relayed";
        "avg-added-lat(ms)"; "max-added-lat(ms)";
      ]
    rows;
  H.note
    "Expected shape: PL < plain; guarantees add time (LF > NG, LF+OP ~2x \
     LF); NG drops packets, LF/OP drop none; ER cuts the average added \
     latency vs plain LF."

let () = H.register ~id:"fig10" ~descr:"move time & latency vs guarantees" run
