(* Command-line driver: run OpenNF scenarios from the shell.

     opennf_demo move --flows 500 --rate 2500 --guarantee lf+op --parallel
     opennf_demo baseline --rate 2500
     opennf_demo scale-out

   Each command builds a simulated testbed (switch + controller + NF
   instances), replays synthetic traffic, performs the operation and
   prints the outcome plus the audit verdict on loss and ordering. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf
open Cmdliner

(* Demo scenarios are fault-free; a typed operation error here is a
   wiring bug, so unwrap loudly. *)
let ok = Op_error.ok_exn

let verdict ?(keys = []) fab nfs =
  let lost = Audit.lost fab.Fabric.audit ~nfs in
  let dups = Audit.duplicated fab.Fabric.audit in
  let reorder = Audit.order_violations fab.Fabric.audit in
  (* Per-flow ordering is what a per-flow-scope move guarantees
     (§5.1.2): cross-flow order matters only when multi-flow state
     moves too. *)
  let per_flow_reorder =
    List.fold_left
      (fun acc key ->
        acc
        + List.length
            (Audit.order_violations ~filter:(Filter.of_key key)
               fab.Fabric.audit))
      0 keys
  in
  let arrival_reorder = Audit.arrival_order_violations fab.Fabric.audit in
  Format.printf
    "audit: lost=%d duplicated=%d reordered-pairs=%d (vs arrival: %d, \
     within flows: %d)@."
    (List.length lost) (List.length dups) (List.length reorder)
    (List.length arrival_reorder) per_flow_reorder

(* --- move command -------------------------------------------------------- *)

let guarantee_conv =
  let parse = function
    | "none" | "ng" -> Ok Move.No_guarantee
    | "lf" | "loss-free" -> Ok Move.Loss_free
    | "lf+op" | "op" | "order-preserving" -> Ok Move.Order_preserving
    | s -> Error (`Msg (Printf.sprintf "unknown guarantee %S" s))
  in
  let print ppf g = Move.pp_guarantee ppf g in
  Arg.conv (parse, print)

let run_move flows rate guarantee parallel early_release compress =
  let fab = Fabric.create ~seed:1 () in
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let nf1, rt1 =
    Fabric.add_nf fab ~name:"prads1" ~impl:(Opennf_nfs.Prads.impl prads1)
      ~costs:Costs.prads
  in
  let nf2, rt2 =
    Fabric.add_nf fab ~name:"prads2" ~impl:(Opennf_nfs.Prads.impl prads2)
      ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create () in
  let handshakes = 2.0 *. float_of_int flows /. rate in
  let schedule, keys =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate ~start:0.05
      ~duration:(handshakes +. 2.5) ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  Engine.schedule_at fab.engine (handshakes +. 0.55) (fun () ->
      Proc.spawn fab.engine (fun () ->
          let report =
            ok
              (Move.run fab.ctrl
                 (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any ~guarantee
                    ~parallel ~early_release ~compress ()))
          in
          Format.printf "%a@." Move.pp_report report));
  Fabric.run fab;
  Format.printf "processed: prads1=%d prads2=%d; dropped at source: %d@."
    (Opennf_sb.Runtime.processed_count rt1)
    (Opennf_sb.Runtime.processed_count rt2)
    (Opennf_sb.Runtime.tombstone_dropped rt1);
  verdict ~keys fab [ "prads1"; "prads2" ]

let flows_arg =
  Arg.(value & opt int 500 & info [ "flows" ] ~doc:"Number of flows.")

let rate_arg =
  Arg.(
    value & opt float 2500.0 & info [ "rate" ] ~doc:"Aggregate packets/second.")

let move_cmd =
  let guarantee =
    Arg.(
      value
      & opt guarantee_conv Move.Loss_free
      & info [ "guarantee" ] ~doc:"none | lf | lf+op")
  in
  let parallel = Arg.(value & flag & info [ "parallel" ] ~doc:"Stream chunks.") in
  let early = Arg.(value & flag & info [ "early-release" ] ~doc:"Early release.") in
  let compress = Arg.(value & flag & info [ "compress" ] ~doc:"Compress state.") in
  Cmd.v
    (Cmd.info "move" ~doc:"Move flows between two PRADS instances")
    Term.(
      const run_move $ flows_arg $ rate_arg $ guarantee $ parallel $ early
      $ compress)

(* --- trace command --------------------------------------------------------- *)

(* Run a seeded loss-free move with the span tracer on, export the
   Chrome trace and print the metrics snapshot. The exported JSON is
   virtual-time only, so two runs with the same arguments are
   byte-identical — the @trace-check alias diffs exactly that, for the
   serial control plane and for a 2-shard one (where the move crosses
   shards and the spans carry shard attributes). *)
let run_trace flows rate seed out timeline shards =
  let obs = Opennf_obs.Hub.create ~trace:true () in
  let fab = Fabric.create ~seed ~obs ~shards () in
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let nf1, _ =
    Fabric.add_nf fab ~shard:0 ~name:"prads1"
      ~impl:(Opennf_nfs.Prads.impl prads1) ~costs:Costs.prads
  in
  let nf2, _ =
    Fabric.add_nf fab ~shard:(shards - 1) ~name:"prads2"
      ~impl:(Opennf_nfs.Prads.impl prads2) ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create () in
  let handshakes = 2.0 *. float_of_int flows /. rate in
  let schedule, _ =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate ~start:0.05
      ~duration:(handshakes +. 2.5) ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  Engine.schedule_at fab.engine (handshakes +. 0.55) (fun () ->
      Proc.spawn fab.engine (fun () ->
          let spec =
            Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any
              ~guarantee:Move.Loss_free ~parallel:true ()
          in
          (* The serial path stays exactly the pre-shard one (direct run,
             no scheduler spans); sharded traces go through the
             cross-shard handshake. *)
          let report =
            if shards <= 1 then ok (Move.run fab.ctrl spec)
            else
              ok (Proc.Ivar.read (Move.submit_sharded fab.Fabric.group spec))
          in
          Format.printf "%a@." Move.pp_report report));
  Fabric.run fab;
  let tr = Opennf_obs.Hub.trace obs in
  if timeline then print_string (Opennf_obs.Export.timeline tr);
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Opennf_obs.Export.chrome tr));
  Format.printf "wrote %d trace events to %s (load via chrome://tracing)@."
    (Opennf_obs.Trace.length tr) out;
  print_string (Opennf_obs.Export.metrics_json (Opennf_obs.Hub.metrics obs))

let trace_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Engine seed.") in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out" ] ~doc:"Chrome trace output path.")
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ] ~doc:"Also print the human-readable timeline.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:"Controller shards (the move crosses shards when > 1).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a traced move and export a Chrome trace + metrics")
    Term.(
      const run_trace $ flows_arg $ rate_arg $ seed $ out $ timeline $ shards)

(* --- report command -------------------------------------------------------- *)

(* Critical-path latency attribution plus the runtime guarantee verdict
   for a seeded two-move scenario: an order-preserving move out and a
   loss-free move back, both admitted through the scheduler (their
   footprints conflict, so the second op shows real queue wait). All
   output is virtual-time data — two runs with the same arguments are
   byte-identical, which @bench-check's moncheck gate relies on. *)
let run_report flows rate seed shards openmetrics folded =
  let obs = Opennf_obs.Hub.create ~trace:true () in
  let fab = Fabric.create ~seed ~obs ~shards ~monitor:true () in
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let nf1, _ =
    Fabric.add_nf fab ~shard:0 ~name:"prads1"
      ~impl:(Opennf_nfs.Prads.impl prads1) ~costs:Costs.prads
  in
  let nf2, _ =
    Fabric.add_nf fab ~shard:(shards - 1) ~name:"prads2"
      ~impl:(Opennf_nfs.Prads.impl prads2) ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create () in
  let handshakes = 2.0 *. float_of_int flows /. rate in
  let schedule, _ =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate ~start:0.05
      ~duration:(handshakes +. 2.5) ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  Engine.schedule_at fab.engine (handshakes +. 0.55) (fun () ->
      Proc.spawn fab.engine (fun () ->
          let submit = Move.submit_sharded fab.Fabric.group in
          let out =
            submit
              (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any
                 ~guarantee:Move.Order_preserving ())
          in
          let back =
            submit
              (Move.spec ~src:nf2 ~dst:nf1 ~filter:Filter.any
                 ~guarantee:Move.Loss_free ~parallel:true ())
          in
          ignore (ok (Proc.Ivar.read out));
          ignore (ok (Proc.Ivar.read back))));
  Fabric.run fab;
  let tr = Opennf_obs.Hub.trace obs in
  let metrics = Opennf_obs.Hub.metrics obs in
  let ops = Opennf_obs.Critical_path.analyze tr in
  print_string (Opennf_obs.Critical_path.report ops);
  (* The reconciliation contract (see {!Opennf_obs.Critical_path}):
     span-derived totals equal the histogram's running sum bit for
     bit — any drift means attribution lost or double-counted time. *)
  let cp_total = Opennf_obs.Critical_path.total ops in
  let hist_sum =
    match
      List.assoc_opt "op.duration_s" (Opennf_obs.Metrics.hists metrics)
    with
    | Some h -> Opennf_util.Stats.Histogram.sum h
    | None -> 0.0
  in
  Format.printf
    "reconcile: critical-path total %.17g s, op.duration_s sum %.17g s (%s)@."
    cp_total hist_sum
    (if Float.equal cp_total hist_sum then "exact" else "MISMATCH");
  print_string (Opennf_obs.Monitor.render (Fabric.verdict fab));
  if folded then print_string (Opennf_obs.Critical_path.folded ops);
  if openmetrics then begin
    Opennf_obs.Critical_path.observe metrics ops;
    print_string (Opennf_obs.Export.openmetrics metrics)
  end

let report_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Engine seed.") in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:"Controller shards (the moves cross shards when > 1).")
  in
  let openmetrics =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:"Also print the metrics registry in OpenMetrics text format.")
  in
  let folded =
    Arg.(
      value & flag
      & info [ "folded" ]
          ~doc:"Also print flamegraph-style folded phase stacks.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Critical-path phase attribution + runtime guarantee verdict for a \
          scheduled two-move scenario")
    Term.(
      const run_report $ flows_arg $ rate_arg $ seed $ shards $ openmetrics
      $ folded)

(* --- baseline command ----------------------------------------------------- *)

let run_baseline flows rate =
  (* A modest packet-out engine, like the paper's switch: it makes the
     Figure 5 race (flush vs forwarding update) visible. *)
  let fab = Fabric.create ~seed:2 ~packet_out_rate:1500.0 () in
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let nf1, rt1 =
    Fabric.add_nf fab ~name:"prads1" ~impl:(Opennf_nfs.Prads.impl prads1)
      ~costs:Costs.prads
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"prads2" ~impl:(Opennf_nfs.Prads.impl prads2)
      ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create () in
  let handshakes = 2.0 *. float_of_int flows /. rate in
  let schedule, _ =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate ~start:0.05
      ~duration:(handshakes +. 2.5) ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  Engine.schedule_at fab.engine (handshakes +. 0.55) (fun () ->
      Proc.spawn fab.engine (fun () ->
          let r =
            Opennf_baseline.Splitmerge.migrate fab.ctrl ~src:nf1 ~dst:nf2
              ~filter:Filter.any
          in
          Format.printf
            "split/merge migrate: %.1fms, %d chunks, %d buffered, %d late@."
            (1000.0 *. (r.Opennf_baseline.Splitmerge.finished -. r.started))
            r.chunks r.buffered r.late));
  Fabric.run fab;
  Format.printf "dropped at source: %d@."
    (Opennf_sb.Runtime.tombstone_dropped rt1);
  verdict fab [ "prads1"; "prads2" ]

let _ = run_baseline

let baseline_cmd =
  Cmd.v
    (Cmd.info "baseline" ~doc:"Split/Merge-style migrate (shows the races)")
    Term.(const run_baseline $ flows_arg $ rate_arg)

(* --- scale-out command ------------------------------------------------------ *)

let run_scale_out () =
  (* The Figure 1 story in one command: an overloaded IDS is scaled out
     mid-scan without losing the scan. *)
  let fab = Fabric.create ~seed:3 () in
  let ids1 = Opennf_nfs.Ids.create ~scan_threshold:12 () in
  let ids2 = Opennf_nfs.Ids.create ~scan_threshold:12 () in
  let nf1, _ =
    Fabric.add_nf fab ~name:"bro1" ~impl:(Opennf_nfs.Ids.impl ids1)
      ~costs:Costs.bro
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"bro2" ~impl:(Opennf_nfs.Ids.impl ids2)
      ~costs:Costs.bro
  in
  let gen = Opennf_trace.Gen.create () in
  let scan =
    Opennf_trace.Gen.port_scan gen
      ~src:(Ipaddr.v 203 0 113 9)
      ~dst:(Ipaddr.v 10 1 0 7)
      ~ports:(List.init 16 (fun i -> 1000 + i))
      ~start:0.1 ~gap:0.1 ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) scan;
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl Filter.any nf1;
      Proc.sleep 0.9;
      ignore
        (ok
           (Copy_op.run fab.ctrl ~src:nf1 ~dst:nf2 ~filter:Filter.any
              ~scope:[ Opennf_state.Scope.Multi ] ()));
      ignore
        (ok
           (Move.run fab.ctrl
              (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any
                 ~guarantee:Move.Loss_free ~parallel:true ()))));
  Fabric.run fab;
  let scans ids =
    List.filter
      (function Opennf_nfs.Ids.Port_scan _ -> true | _ -> false)
      (Opennf_nfs.Ids.alert_log ids)
  in
  Format.printf "scan alerts: bro1=%d bro2=%d (detected across the split: %b)@."
    (List.length (scans ids1))
    (List.length (scans ids2))
    (scans ids1 <> [] || scans ids2 <> [])

let scale_out_cmd =
  Cmd.v
    (Cmd.info "scale-out" ~doc:"Figure 1: scale an IDS out mid-scan")
    Term.(const run_scale_out $ const ())

let () =
  let info =
    Cmd.info "opennf_demo" ~version:"1.0.0"
      ~doc:"OpenNF control-plane scenarios on a simulated testbed"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ move_cmd; baseline_cmd; scale_out_cmd; trace_cmd; report_cmd ]))
