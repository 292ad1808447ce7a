(* Runtime-monitor gate (ISSUE 10, satellite of the online guarantee
   monitor).

   Three claims, each enforced with [failwith] so @bench-check fails
   loudly:

   1. {b Soundness on fault-free runs}: with the live monitor attached,
      the §8-style scenarios — a loss-free and an order-preserving PRADS
      move (with and without a resilience policy armed), and the
      shard-scaling workload at 1/2/4 shards — report {e zero}
      violations.

   2. {b Pure observation}: a monitored run of the shard workload has
      the same virtual makespan and the same semantic digest as the
      unmonitored run of the identical scenario.

   3. {b Completeness on a seeded bug}: a move whose flush deliberately
      discards a buffered packet ([Move.Drop_buffered]) yields at least
      one finding, the finding is a loss on the expected NF, and the
      rendered verdict is byte-identical across two fresh runs. *)

module H = Harness
module Monitor = Opennf_obs.Monitor
open Opennf_net
open Opennf

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then failwith ("moncheck: " ^ msg)) fmt

(* --- fault-free PRADS moves ---------------------------------------------- *)

let clean_move ~label ?resilience ~guarantee () =
  let bed = H.prads_bed ~flows:200 ~rate:2000.0 ?resilience ~monitor:true () in
  H.run_at bed.H.fab ~at:bed.H.move_at (fun () ->
      match
        Move.run bed.H.fab.Fabric.ctrl
          (Move.spec ~src:bed.H.nf1 ~dst:bed.H.nf2 ~filter:Filter.any
             ~guarantee ~parallel:true ())
      with
      | Ok _ -> ()
      | Error e -> failwith (Format.asprintf "moncheck: %s move failed: %a" label Op_error.pp e));
  let live = Fabric.live_findings bed.H.fab in
  let verdict = Fabric.verdict bed.H.fab in
  check (live = []) "%s: %d online finding(s) on a fault-free run" label
    (List.length live);
  check (Monitor.clean verdict) "%s: dirty verdict on a fault-free run:\n%s"
    label (Monitor.render verdict);
  H.note "  %-28s clean (%d packets processed)" label
    (Audit.processed_count bed.H.fab.Fabric.audit)

(* --- fault-free shard workload, monitored vs not -------------------------- *)

let clean_shards ~shards () =
  let label = Printf.sprintf "shards=%d" shards in
  let baseline = H.run_shard_workload ~ops:(2 * shards) ~flows:40 ~shards () in
  let verdict = ref [] in
  let monitored =
    H.run_shard_workload ~ops:(2 * shards) ~flows:40 ~shards ~monitor:true
      ~on_fabric:(fun fab ->
        verdict := Fabric.verdict fab;
        check (Fabric.monitored fab) "%s: monitor not attached" label)
      ()
  in
  check
    (Float.equal baseline.H.s_makespan monitored.H.s_makespan)
    "%s: monitoring changed the virtual makespan (%.9f vs %.9f)" label
    baseline.H.s_makespan monitored.H.s_makespan;
  check
    (Int64.equal baseline.H.s_digest monitored.H.s_digest)
    "%s: monitoring changed the semantic digest" label;
  check (Monitor.clean !verdict) "%s: dirty verdict on a fault-free run:\n%s"
    label (Monitor.render !verdict);
  H.note "  %-28s clean; makespan %.6fs unchanged" label monitored.H.s_makespan

(* --- seeded violation ------------------------------------------------------ *)

(* One run of the broken controller: a loss-free move whose flush drops
   the first buffered packet. Returns the rendered verdict. *)
let broken_verdict () =
  let bed = H.prads_bed ~flows:200 ~rate:2000.0 ~monitor:true () in
  H.run_at bed.H.fab ~at:bed.H.move_at (fun () ->
      match
        Move.run bed.H.fab.Fabric.ctrl
          (Move.spec ~src:bed.H.nf1 ~dst:bed.H.nf2 ~filter:Filter.any
             ~guarantee:Move.Loss_free ~break_for_test:Move.Drop_buffered ())
      with
      | Ok _ -> ()
      | Error e ->
        failwith (Format.asprintf "moncheck: broken move failed: %a" Op_error.pp e));
  Fabric.verdict bed.H.fab

let seeded_violation () =
  let v1 = broken_verdict () in
  check (not (Monitor.clean v1)) "seeded Drop_buffered bug not detected";
  check
    (List.exists (fun f -> f.Monitor.property = Monitor.Loss) v1)
    "seeded Drop_buffered bug detected, but not as a loss";
  let r1 = Monitor.render v1 and r2 = Monitor.render (broken_verdict ()) in
  check (String.equal r1 r2)
    "seeded-violation report not byte-identical across runs:\n--- a\n%s--- b\n%s"
    r1 r2;
  H.note "  %-28s %d finding(s), report deterministic" "seeded Drop_buffered"
    (List.length v1)

(* --- driver ----------------------------------------------------------------- *)

let run () =
  H.section "Runtime guarantee monitor gate (moncheck)";
  clean_move ~label:"loss-free move" ~guarantee:Move.Loss_free ();
  clean_move ~label:"order-preserving move" ~guarantee:Move.Order_preserving ();
  clean_move ~label:"resilient loss-free move"
    ~resilience:
      {
        Controller.call_timeout = 0.05;
        max_retries = 1;
        backoff = 0.01;
        liveness_misses = 2;
        probe_period = 0.1;
      }
    ~guarantee:Move.Loss_free ();
  List.iter (fun shards -> clean_shards ~shards ()) [ 1; 2; 4 ];
  seeded_violation ();
  H.note "moncheck: all gates passed"

let () =
  H.register ~id:"moncheck"
    ~descr:"runtime guarantee monitor: clean fault-free, fires on seeded bugs"
    run
