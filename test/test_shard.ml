(* The sharded control plane (ISSUE 8): partition totality/stability,
   sharded-vs-serial equivalence on disjoint workloads, cross-shard
   moves (semantics, faults, serialization), crash containment to one
   shard, and the single-shard smoke guarantees (no behavior or metric
   namespace drift at [shards = 1]). *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Faults = Opennf_sim.Faults
module Hashing = Opennf_util.Hashing
module Costs = Opennf_sb.Costs
module Dummy = Opennf_nfs.Dummy
module H = Helpers
open Opennf_net
open Opennf

let subnet i = Ipaddr.Prefix.make (Ipaddr.v 10 (80 + i) 0 0) 16
let servers = Ipaddr.Prefix.make (Ipaddr.v 172 31 0 0) 16
let two_sided i = Filter.make ~src:(subnet i) ~dst:servers ()

let key_in_subnet i k =
  Flow.make
    ~src:(Ipaddr.of_int (Ipaddr.to_int (Ipaddr.v 10 (80 + i) 0 0) + k + 1))
    ~dst:(Ipaddr.v 172 31 0 1) ~proto:Flow.Tcp ~sport:(30000 + k) ~dport:443 ()

(* --- partition function --------------------------------------------------- *)

let test_partition_basics () =
  let k = key_in_subnet 0 3 in
  Alcotest.(check int) "one shard maps to 0" 0 (Shard.of_key ~shards:1 k);
  let s = Shard.of_key ~shards:4 k in
  Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
  Alcotest.(check int) "mirrored key, same shard" s
    (Shard.of_key ~shards:4 (Flow.reverse k));
  Alcotest.(check int) "stable across calls" s (Shard.of_key ~shards:4 k);
  (match Shard.of_filter ~shards:4 (Filter.of_key k) with
  | Some s' -> Alcotest.(check int) "exact filter agrees with key" s s'
  | None -> Alcotest.fail "exact filter must resolve to a shard");
  Alcotest.(check (option int)) "wildcard filter spans shards" None
    (Shard.of_filter ~shards:4 (two_sided 0));
  let n = Shard.of_name ~shards:4 "prads1" in
  Alcotest.(check bool) "name shard in range" true (n >= 0 && n < 4);
  Alcotest.(check int) "name shard stable" n (Shard.of_name ~shards:4 "prads1")

let arbitrary_key =
  QCheck.(
    map
      (fun (a, b, (sport, dport, udp)) ->
        Flow.make
          ~src:(Ipaddr.of_int (0x0a000000 + (a land 0xffff)))
          ~dst:(Ipaddr.of_int (0xac1f0000 + (b land 0xffff)))
          ~proto:(if udp then Flow.Udp else Flow.Tcp)
          ~sport:(1 + (sport land 0xffff))
          ~dport:(1 + (dport land 0xffff))
          ())
      (triple (int_bound 0xffff) (int_bound 0xffff)
         (triple (int_bound 0xfffe) (int_bound 0xfffe) bool)))

(* Totality (every key maps into [0, shards)), direction independence
   (a connection never straddles shards) and determinism. *)
let prop_partition_total_stable =
  QCheck.Test.make ~name:"partition total, stable, direction-independent"
    ~count:500
    QCheck.(pair arbitrary_key (int_range 1 8))
    (fun (key, shards) ->
      let s = Shard.of_key ~shards key in
      s >= 0 && s < shards
      && Shard.of_key ~shards (Flow.reverse key) = s
      && Shard.of_key ~shards key = s
      && Shard.of_key ~shards:1 key = 0)

(* --- sharded == serial on disjoint workloads ------------------------------ *)

type pair = { src : Controller.nf; dst : Controller.nf; d1 : Dummy.t; d2 : Dummy.t }

(* [n] src/dst dummy pairs, pair [i] homed entirely on shard
   [i mod shards]; every move is intra-shard and the workload is
   disjoint across pairs. *)
let sharded_bed ?(seed = 5) ?resilience ~shards ~n ~flows () =
  let fab = Fabric.create ~seed ?resilience ~shards () in
  let pairs =
    List.init n (fun i ->
        let d1 = Dummy.create () in
        let d2 = Dummy.create () in
        Dummy.seed_flows d1 (List.init flows (key_in_subnet i));
        let home = i mod shards in
        let src, _ =
          Fabric.add_nf fab ~shard:home ~name:(Printf.sprintf "src%d" i)
            ~impl:(Dummy.impl d1) ~costs:Costs.dummy
        in
        let dst, _ =
          Fabric.add_nf fab ~shard:home ~name:(Printf.sprintf "dst%d" i)
            ~impl:(Dummy.impl d2) ~costs:Costs.dummy
        in
        { src; dst; d1; d2 })
  in
  Proc.spawn fab.engine (fun () ->
      List.iteri
        (fun i p -> Controller.set_route fab.ctrl (two_sided i) p.src)
        pairs);
  (fab, pairs)

let spec_for ?on_phase ~filter p =
  Move.spec ~src:p.src ~dst:p.dst ~filter ~guarantee:Move.Loss_free
    ~parallel:true ?on_phase ()

let run_sharded fab specs =
  let results = ref [] in
  let finished = ref 0.0 in
  Engine.schedule_at fab.Fabric.engine 0.1 (fun () ->
      Proc.spawn fab.Fabric.engine (fun () ->
          let ivars = List.map (Move.submit_sharded fab.Fabric.group) specs in
          results := List.map Proc.Ivar.read ivars;
          finished := Engine.now fab.Fabric.engine));
  Fabric.run fab;
  (!results, !finished -. 0.1)

let outcome ?seed ~shards ~n ~flows () =
  let fab, pairs = sharded_bed ?seed ~shards ~n ~flows () in
  let specs = List.mapi (fun i p -> spec_for ~filter:(two_sided i) p) pairs in
  let results, makespan = run_sharded fab specs in
  let semantic =
    List.map2
      (fun r p ->
        let r = Op_error.ok_exn r in
        ( r.Move.rp_src, r.Move.rp_dst, r.Move.per_chunks, r.Move.multi_chunks,
          r.Move.state_bytes, Dummy.flow_count p.d1, Dummy.imported_count p.d2
        ))
      results pairs
  in
  (semantic, makespan, fab)

let test_disjoint_sharded_equals_serial () =
  let n = 4 and flows = 10 in
  let serial, serial_span, _ = outcome ~shards:1 ~n ~flows () in
  let sharded, sharded_span, fab = outcome ~shards:2 ~n ~flows () in
  Alcotest.(check bool) "semantic outcomes identical" true (serial = sharded);
  Alcotest.(check int) "no cross-shard ops on a disjoint workload" 0
    (Shard.cross_shard_ops fab.Fabric.group);
  (* Each shard retired its own pairs' moves through its own queue. *)
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d completed its moves" k)
        (n / 2)
        (Sched.stats (Shard.sched fab.Fabric.group k)).Sched.completed)
    [ 0; 1 ];
  (* Two controller CPUs overlap in virtual time. *)
  Alcotest.(check bool)
    (Printf.sprintf "sharded makespan no worse (%.4f <= %.4f)" sharded_span
       serial_span)
    true
    (sharded_span <= serial_span)

let prop_sharded_equals_serial =
  QCheck.Test.make ~name:"disjoint sharded moves == serial (random)" ~count:8
    QCheck.(triple (int_range 2 5) (int_range 1 12) (int_range 1 1000))
    (fun (n, flows, seed) ->
      let run shards =
        let semantic, _, _ = outcome ~seed ~shards ~n ~flows () in
        semantic
      in
      run 2 = run 1 && run 4 = run 1)

(* --- cross-shard moves ---------------------------------------------------- *)

let digest_of_ids ids =
  List.fold_left
    (fun acc id -> Hashing.combine acc (Int64.of_int id))
    (Hashing.fnv1a64 "events") ids

(* Per-flow processed sequences, folded in the (deterministic) key-list
   order. Identical across control planes whenever the move guarantees
   hold: loss-freedom pins the per-flow sets, order preservation the
   per-flow sequences. *)
let event_digest (tb : H.testbed) =
  List.fold_left
    (fun acc key ->
      Hashing.combine acc
        (digest_of_ids
           (Audit.processed_order ~filter:(Filter.of_key key) tb.H.fab.audit)))
    (Hashing.fnv1a64 "flows") tb.H.keys

let store_digest (tb : H.testbed) =
  let c1, a1, p1 = Opennf_nfs.Prads.stats tb.H.prads1 in
  let c2, a2, p2 = Opennf_nfs.Prads.stats tb.H.prads2 in
  (c1 + c2, a1 + a2, p1 + p2, Opennf_nfs.Prads.connection_count tb.H.prads2)

(* A full PRADS run: traffic to nf1, one OP move of everything to nf2
   at t=0.5, submitted through the shard group. *)
let prads_run ?resilience ?shards () =
  let tb = H.prads_pair ?resilience ?shards ~flows:20 ~rate:400.0 () in
  let result = ref None in
  H.run_with tb ~at:0.5 (fun () ->
      let spec =
        Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
          ~guarantee:Move.Order_preserving ~parallel:true ()
      in
      result :=
        Some (Proc.Ivar.read (Move.submit_sharded tb.H.fab.Fabric.group spec)));
  let report =
    match !result with
    | Some (Ok r) -> r
    | Some (Error e) -> Alcotest.fail ("move failed: " ^ Op_error.to_string e)
    | None -> Alcotest.fail "move never ran"
  in
  (tb, report)

let test_cross_shard_move_semantics () =
  let tb1, r1 = prads_run () in
  let tb2, r2 = prads_run ~shards:2 () in
  Alcotest.(check int) "handshake admitted the move" 1
    (Shard.cross_shard_ops tb2.H.fab.Fabric.group);
  Alcotest.(check int) "serial fabric has no cross-shard ops" 0
    (Shard.cross_shard_ops tb1.H.fab.Fabric.group);
  H.assert_loss_free tb2;
  H.assert_order_preserved_per_flow tb2;
  Alcotest.(check int) "same chunks as the serial move" r1.Move.per_chunks
    r2.Move.per_chunks;
  Alcotest.(check bool) "event digests agree" true
    (event_digest tb1 = event_digest tb2);
  Alcotest.(check bool) "store digests agree" true
    (store_digest tb1 = store_digest tb2)

let resilience =
  {
    Controller.call_timeout = 0.05;
    max_retries = 3;
    backoff = 0.01;
    liveness_misses = 4;
    probe_period = 0.1;
  }

(* The PR 2 fault injector on every controller<->NF link: duplication
   and jitter stress retries and reordering while the move crosses
   shards. The guarantees must hold anyway. *)
let test_cross_shard_move_under_faults () =
  let tb = H.prads_pair ~resilience ~shards:2 ~flows:15 ~rate:300.0 () in
  List.iter
    (fun name ->
      Faults.set_link tb.H.fab.faults ~name ~dup:0.15 ~jitter:0.0005 ())
    [ "ctrl->prads1"; "prads1->ctrl"; "ctrl->prads2"; "prads2->ctrl" ];
  let result = ref None in
  H.run_with tb ~at:0.5 (fun () ->
      let spec =
        Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
          ~guarantee:Move.Loss_free ~parallel:true ()
      in
      result :=
        Some (Proc.Ivar.read (Move.submit_sharded tb.H.fab.Fabric.group spec)));
  (match !result with
  | Some (Ok r) ->
    Alcotest.(check bool) "all flows carried" true (r.Move.per_chunks > 0)
  | Some (Error e) ->
    Alcotest.fail ("move under faults failed: " ^ Op_error.to_string e)
  | None -> Alcotest.fail "move never ran");
  H.assert_loss_free tb;
  Alcotest.(check int) "cross-shard handshake used" 1
    (Shard.cross_shard_ops tb.H.fab.Fabric.group)

(* Two conflicting cross-shard moves (there and back over the same
   filter): the handshake must serialize them on both shards, and the
   state must all return home. *)
let test_cross_shard_serialization () =
  let flows = 8 in
  let fab = Fabric.create ~seed:5 ~shards:2 () in
  let d1 = Dummy.create () and d2 = Dummy.create () in
  Dummy.seed_flows d1 (List.init flows (key_in_subnet 0));
  let src, _ =
    Fabric.add_nf fab ~shard:0 ~name:"src0" ~impl:(Dummy.impl d1)
      ~costs:Costs.dummy
  in
  let dst, _ =
    Fabric.add_nf fab ~shard:1 ~name:"dst0" ~impl:(Dummy.impl d2)
      ~costs:Costs.dummy
  in
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl (two_sided 0) src);
  let there =
    Move.spec ~src ~dst ~filter:(two_sided 0) ~guarantee:Move.Loss_free
      ~parallel:true ()
  in
  let back =
    Move.spec ~src:dst ~dst:src ~filter:(two_sided 0)
      ~guarantee:Move.Loss_free ~parallel:true ()
  in
  let results = ref [] in
  Engine.schedule_at fab.Fabric.engine 0.1 (fun () ->
      Proc.spawn fab.Fabric.engine (fun () ->
          let ivars =
            List.map (Move.submit_sharded fab.Fabric.group) [ there; back ]
          in
          results := List.map Proc.Ivar.read ivars));
  Fabric.run fab;
  let reports = List.map Op_error.ok_exn !results in
  List.iter
    (fun r ->
      Alcotest.(check int) "each leg carries every flow" flows
        r.Move.per_chunks)
    reports;
  Alcotest.(check int) "flows back at the source" flows (Dummy.flow_count d1);
  Alcotest.(check int) "destination drained" 0 (Dummy.flow_count d2);
  Alcotest.(check int) "both admissions crossed shards" 2
    (Shard.cross_shard_ops fab.Fabric.group);
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d never ran the legs together" k)
        1
        (Sched.stats (Shard.sched fab.Fabric.group k)).Sched.peak_active)
    [ 0; 1 ]

(* --- crash containment ---------------------------------------------------- *)

(* Pair 0 lives on shard 0, pair 1 on shard 1. Pair 1's source dies
   mid-transfer: its move fails typed, while shard 0's move — and its
   scheduler — never notice. *)
let test_crash_contained_to_one_shard () =
  let flows = 8 in
  let fab, pairs = sharded_bed ~resilience ~shards:2 ~n:2 ~flows () in
  let p0 = List.nth pairs 0 and p1 = List.nth pairs 1 in
  let healthy = spec_for ~filter:(two_sided 0) p0 in
  let doomed =
    spec_for ~filter:(two_sided 1)
      ~on_phase:(fun ph ->
        if ph = Move.Transfer_started then
          Faults.crash_now fab.Fabric.faults ~node:"src1")
      p1
  in
  let results, _ = run_sharded fab [ healthy; doomed ] in
  (match results with
  | [ ok; crashed ] ->
    let r = Op_error.ok_exn ok in
    Alcotest.(check int) "shard 0's move unaffected" flows r.Move.per_chunks;
    Alcotest.(check int) "shard 0's flows all arrived" flows
      (Dummy.imported_count p0.d2);
    (match crashed with
    | Error (Op_error.Nf_crashed { nf = "src1" }) -> ()
    | Ok _ -> Alcotest.fail "move across a crash must not succeed"
    | Error e -> Alcotest.fail ("unexpected error: " ^ Op_error.to_string e))
  | _ -> Alcotest.fail "expected two results");
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d retired its move" k)
        1
        (Sched.stats (Shard.sched fab.Fabric.group k)).Sched.completed)
    [ 0; 1 ]

(* --- single-shard smoke --------------------------------------------------- *)

(* With one shard the group is pure plumbing: submission degenerates to
   the plain scheduler, no cross-shard machinery engages, and the metric
   namespace contains no shard-derived names (part of the bit-identity
   contract with the unsharded control plane). *)
let test_one_shard_smoke () =
  let obs = Opennf_obs.Hub.create ~metrics:true () in
  let fab = Fabric.create ~seed:5 ~obs () in
  Alcotest.(check int) "default shard count" 1 (Fabric.shards fab);
  Alcotest.(check int) "group of one" 1 (Shard.count fab.Fabric.group);
  let d1 = Dummy.create () and d2 = Dummy.create () in
  Dummy.seed_flows d1 (List.init 6 (key_in_subnet 0));
  let src, _ =
    Fabric.add_nf fab ~name:"src0" ~impl:(Dummy.impl d1) ~costs:Costs.dummy
  in
  let dst, _ =
    Fabric.add_nf fab ~name:"dst0" ~impl:(Dummy.impl d2) ~costs:Costs.dummy
  in
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl (two_sided 0) src);
  let spec =
    Move.spec ~src ~dst ~filter:(two_sided 0) ~guarantee:Move.Loss_free
      ~parallel:true ()
  in
  let results, _ = run_sharded fab [ spec ] in
  let r = Op_error.ok_exn (List.hd results) in
  Alcotest.(check int) "move carried every flow" 6 r.Move.per_chunks;
  Alcotest.(check int) "no cross-shard ops" 0
    (Shard.cross_shard_ops fab.Fabric.group);
  let contains_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let metric_names =
    List.map fst (Opennf_obs.Metrics.counters (Opennf_obs.Hub.metrics obs))
  in
  List.iter
    (fun name ->
      let shardish = contains_sub name ".shard" || contains_sub name "shard." in
      Alcotest.(check bool)
        (Printf.sprintf "no shard-derived metric at shards=1 (%s)" name)
        false shardish)
    metric_names

(* --- shares across shards --------------------------------------------------- *)

(* A strong-consistency share between a source and a destination homed
   on different shards holds its footprint on both schedulers through
   the cross-shard handshake. Its outcome must equal the same share on
   a 1-shard fabric. *)
let share_outcome ~shards =
  let fab = Fabric.create ~seed:5 ~shards () in
  let d1 = Dummy.create () and d2 = Dummy.create () in
  Dummy.seed_flows d1 (List.init 4 (key_in_subnet 0));
  let src, _ =
    Fabric.add_nf fab ~shard:0 ~name:"src0" ~impl:(Dummy.impl d1)
      ~costs:Costs.dummy
  in
  let dst, _ =
    Fabric.add_nf fab ~shard:(shards - 1) ~name:"dst0" ~impl:(Dummy.impl d2)
      ~costs:Costs.dummy
  in
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl (two_sided 0) src);
  let synced = ref (-1) in
  Engine.schedule_at fab.Fabric.engine 0.1 (fun () ->
      Proc.spawn fab.Fabric.engine (fun () ->
          match
            Share.start fab.Fabric.ctrl ~shard_group:fab.Fabric.group
              ~instances:[ src; dst ] ~filter:(two_sided 0)
              ~consistency:Share.Strong ()
          with
          | Error e -> Alcotest.fail (Op_error.to_string e)
          | Ok share ->
            Share.stop share;
            synced := (Share.stats share).Share.updates_synced));
  Fabric.run fab;
  ( (!synced, Dummy.flow_count d1, Dummy.flow_count d2),
    Shard.cross_shard_ops fab.Fabric.group )

let test_cross_shard_share () =
  let serial, serial_cross = share_outcome ~shards:1 in
  let sharded, sharded_cross = share_outcome ~shards:2 in
  Alcotest.(check (triple int int int)) "share outcome matches 1 shard" serial
    sharded;
  Alcotest.(check int) "1-shard share crosses nothing" 0 serial_cross;
  Alcotest.(check int) "2-shard share takes the handshake" 1 sharded_cross

let test_sharded_metrics_namespaced () =
  let obs = Opennf_obs.Hub.create ~metrics:true () in
  let fab = Fabric.create ~seed:5 ~shards:2 ~obs () in
  let d1 = Dummy.create () and d2 = Dummy.create () in
  Dummy.seed_flows d1 (List.init 4 (key_in_subnet 0));
  let src, _ =
    Fabric.add_nf fab ~shard:0 ~name:"src0" ~impl:(Dummy.impl d1)
      ~costs:Costs.dummy
  in
  let dst, _ =
    Fabric.add_nf fab ~shard:1 ~name:"dst0" ~impl:(Dummy.impl d2)
      ~costs:Costs.dummy
  in
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl (two_sided 0) src);
  let spec =
    Move.spec ~src ~dst ~filter:(two_sided 0) ~guarantee:Move.Loss_free
      ~parallel:true ()
  in
  ignore (run_sharded fab [ spec ]);
  let metrics = Opennf_obs.Hub.metrics obs in
  Alcotest.(check int) "cross-shard counter recorded the move" 1
    (Opennf_obs.Metrics.counter_value metrics "shard.cross_ops");
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d scheduler admitted" k)
        true
        (Opennf_obs.Metrics.counter_value metrics
           (Printf.sprintf "sched.admitted.shard%d" k)
        >= 1))
    [ 0; 1 ]

(* --- admission on the instances' home shard -------------------------------- *)

(* A 2-shard fabric with both instances pinned to shard 1 and a move of
   their flows admitted first: every later operation on those flows
   must queue on shard 1's scheduler, the one the move holds. Shard 0
   admits nothing. *)
let home_shard_bed ~flows =
  let fab = Fabric.create ~seed:5 ~shards:2 () in
  let d1 = Dummy.create () and d2 = Dummy.create () in
  Dummy.seed_flows d1 (List.init flows (key_in_subnet 0));
  let src, _ =
    Fabric.add_nf fab ~shard:1 ~name:"src0" ~impl:(Dummy.impl d1)
      ~costs:Costs.dummy
  in
  let dst, _ =
    Fabric.add_nf fab ~shard:1 ~name:"dst0" ~impl:(Dummy.impl d2)
      ~costs:Costs.dummy
  in
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl (two_sided 0) src);
  let move =
    Move.spec ~src ~dst ~filter:(two_sided 0) ~guarantee:Move.Loss_free
      ~parallel:true ()
  in
  (fab, src, dst, d1, d2, move)

let check_only_shard_one_admitted fab ~ops =
  let stats k = Sched.stats (Shard.sched fab.Fabric.group k) in
  Alcotest.(check int) "shard 0 admitted nothing" 0 (stats 0).Sched.admitted;
  Alcotest.(check int) "shard 1 admitted both" ops (stats 1).Sched.admitted;
  Alcotest.(check int) "shard 1 never ran them together" 1
    (stats 1).Sched.peak_active;
  Alcotest.(check int) "the second waited on shard 1" 1
    (stats 1).Sched.peak_waiting;
  Alcotest.(check int) "no cross-shard handshake" 0
    (Shard.cross_shard_ops fab.Fabric.group)

let test_copy_queues_on_home_shard () =
  let flows = 8 in
  let fab, src, dst, d1, d2, move = home_shard_bed ~flows in
  let group = fab.Fabric.group in
  let results = ref None in
  Engine.schedule_at fab.Fabric.engine 0.1 (fun () ->
      Proc.spawn fab.Fabric.engine (fun () ->
          let m = Move.submit_sharded group move in
          let c =
            Copy_op.submit_sharded group ~src ~dst ~filter:(two_sided 0)
              ~scope:[ Opennf_state.Scope.Per ] ()
          in
          Alcotest.(check int) "copy queued behind the move" 1
            (Sched.waiting_count (Shard.sched group 1));
          results := Some (Proc.Ivar.read m, Proc.Ivar.read c)));
  Fabric.run fab;
  (match !results with
  | None -> Alcotest.fail "operations never completed"
  | Some (m, c) ->
    let m = Op_error.ok_exn m and c = Op_error.ok_exn c in
    Alcotest.(check int) "move carried every flow" flows m.Move.per_chunks;
    (* Admitted after the move, the copy reads a drained source. *)
    Alcotest.(check int) "copy found the source drained" 0 c.Copy_op.chunks;
    Alcotest.(check bool) "copy started after the move finished" true
      (c.Copy_op.started >= m.Move.finished));
  Alcotest.(check int) "source drained" 0 (Dummy.flow_count d1);
  Alcotest.(check int) "destination holds every flow" flows
    (Dummy.flow_count d2);
  check_only_shard_one_admitted fab ~ops:2

let test_notify_waits_on_home_shard () =
  let flows = 8 in
  let fab, src, _, _, _, move = home_shard_bed ~flows in
  let group = fab.Fabric.group in
  let outcome = ref None in
  Engine.schedule_at fab.Fabric.engine 0.1 (fun () ->
      Proc.spawn fab.Fabric.engine (fun () ->
          let m = Move.submit_sharded group move in
          let h =
            Op_error.ok_exn
              (Notify.enable ~shard_group:group fab.Fabric.ctrl src
                 (two_sided 0) ignore)
          in
          let enabled_at = Engine.now fab.Fabric.engine in
          let move_done = Proc.Ivar.peek m in
          Notify.disable fab.Fabric.ctrl h;
          outcome := Some (enabled_at, move_done)));
  Fabric.run fab;
  (match !outcome with
  | None -> Alcotest.fail "notify never enabled"
  | Some (_, None) -> Alcotest.fail "notify enabled while the move ran"
  | Some (enabled_at, Some r) ->
    let r = Op_error.ok_exn r in
    Alcotest.(check int) "move carried every flow" flows r.Move.per_chunks;
    Alcotest.(check bool) "enable returned after the move finished" true
      (enabled_at >= r.Move.finished));
  check_only_shard_one_admitted fab ~ops:2

let suite =
  [
    Alcotest.test_case "partition basics" `Quick test_partition_basics;
    Alcotest.test_case "disjoint sharded == serial" `Quick
      test_disjoint_sharded_equals_serial;
    Alcotest.test_case "cross-shard move: semantics + digests" `Quick
      test_cross_shard_move_semantics;
    Alcotest.test_case "cross-shard move under link faults" `Quick
      test_cross_shard_move_under_faults;
    Alcotest.test_case "conflicting cross-shard moves serialize" `Quick
      test_cross_shard_serialization;
    Alcotest.test_case "crash contained to one shard" `Quick
      test_crash_contained_to_one_shard;
    Alcotest.test_case "one-shard smoke: plumbing only" `Quick
      test_one_shard_smoke;
    Alcotest.test_case "cross-shard share == one shard" `Quick
      test_cross_shard_share;
    Alcotest.test_case "sharded metric namespace" `Quick
      test_sharded_metrics_namespaced;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_partition_total_stable; prop_sharded_equals_serial ]
  @ [
      Alcotest.test_case "copy queues behind a move on the home shard" `Quick
        test_copy_queues_on_home_shard;
      Alcotest.test_case "notify waits out a move on the home shard" `Quick
        test_notify_waits_on_home_shard;
    ]
