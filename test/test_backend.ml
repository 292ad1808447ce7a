(* State backends: the Local/Shared/Replicated decoupling.

   Unit tests drive a toy exporter/applier pair over the delta link
   (batching, delete propagation, dedup, gaps, promote, drain); the
   integration tests put PRADS pairs on real backends and check the
   paper-level properties: a shared-store move transfers nothing, a
   replicated standby tracks its primary byte for byte, and a surprise
   crash at ANY delta boundary leaves the promoted standby exactly equal
   to the primary's frozen state (loss-freedom and duplicate-freedom of
   the state stream). *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Faults = Opennf_sim.Faults
module Costs = Opennf_sb.Costs
module Nf_api = Opennf_sb.Nf_api
module Scope = Opennf_state.Scope
module Chunk = Opennf_state.Chunk
module Backend = Opennf_state.Backend
module Prads = Opennf_nfs.Prads
open Opennf_net
open Opennf
module H = Helpers

(* --- state digests ------------------------------------------------------- *)

let chunk_str (c : Chunk.t) = c.Chunk.kind ^ "|" ^ c.Chunk.data

let perflow_digest (i : Nf_api.impl) =
  i.Nf_api.list_perflow Filter.any
  |> List.filter_map i.Nf_api.export_perflow
  |> List.map chunk_str |> List.sort String.compare

let multiflow_digest (i : Nf_api.impl) =
  i.Nf_api.list_multiflow Filter.any
  |> List.filter_map i.Nf_api.export_multiflow
  |> List.map chunk_str |> List.sort String.compare

let digests_equal a b =
  perflow_digest a = perflow_digest b && multiflow_digest a = multiflow_digest b

let check_digests_equal name a b =
  Alcotest.(check (list string)) (name ^ ": per-flow state equal")
    (perflow_digest a) (perflow_digest b);
  Alcotest.(check (list string)) (name ^ ": multi-flow state equal")
    (multiflow_digest a) (multiflow_digest b)

(* --- store registry ------------------------------------------------------ *)

let int_id : int ref Stdlib.Type.Id.t = Stdlib.Type.Id.make ()
let str_id : string ref Stdlib.Type.Id.t = Stdlib.Type.Id.make ()

let test_get_store_identity () =
  let b = Backend.shared () in
  let r = Backend.get_store b ~name:"x" ~id:int_id ~make:(fun () -> ref 0) in
  r := 5;
  let r' = Backend.get_store b ~name:"x" ~id:int_id ~make:(fun () -> ref 0) in
  Alcotest.(check bool) "same object" true (r == r');
  Alcotest.(check int) "writes visible through both handles" 5 !r';
  let p1 = Prads.create ~backend:b () in
  let p2 = Prads.create ~backend:b () in
  Alcotest.(check bool) "two PRADS over one shared backend share state" true
    (p1 == p2)

let test_get_store_type_safety () =
  let b = Backend.shared () in
  ignore (Backend.get_store b ~name:"x" ~id:int_id ~make:(fun () -> ref 0));
  match Backend.get_store b ~name:"x" ~id:str_id ~make:(fun () -> ref "") with
  | _ -> Alcotest.fail "name reuse at another type must be rejected"
  | exception Invalid_argument _ -> ()

let test_routing_predicates () =
  let l = Backend.local () in
  let s = Backend.shared () in
  let engine = Engine.create () in
  let pb, sb = Backend.replicated_pair engine () in
  Alcotest.(check bool) "a shared backend is its own store" true
    (Backend.same_store s s);
  Alcotest.(check bool) "a local backend is its own store" true
    (Backend.same_store l l);
  Alcotest.(check bool) "distinct backends are distinct stores" false
    (Backend.same_store l (Backend.local ()));
  Alcotest.(check bool) "a replicated end is never 'same store'" false
    (Backend.same_store pb pb);
  Alcotest.(check bool) "primary->standby is a replica pair" true
    (Backend.replica_pair ~primary:pb ~standby:sb);
  Alcotest.(check bool) "standby->primary is not" false
    (Backend.replica_pair ~primary:sb ~standby:pb);
  Alcotest.(check bool) "local covers All" true (Backend.covers l Scope.All);
  Alcotest.(check bool) "replicated covers Per" true (Backend.covers pb Scope.Per);
  Alcotest.(check bool) "replicated does not cover All" false
    (Backend.covers pb Scope.All);
  Backend.promote sb;
  Alcotest.(check bool) "a promoted standby leaves the pair" false
    (Backend.replica_pair ~primary:pb ~standby:sb)

(* --- toy delta link ------------------------------------------------------ *)

(* A replicated pair whose "NF" is a Filter-keyed string table: the
   exporter reads the primary table, the applier writes the standby
   table and logs every applied entry, and every delta-link behavior is
   observable in isolation. *)
let toy ?batch_bytes ?faults engine =
  let pb, sb =
    Backend.replicated_pair engine ~name:"toy" ?batch_bytes ?faults ()
  in
  let pstore = Filter.Table.create 16 in
  let sstore = Filter.Table.create 16 in
  let applied = ref [] in
  Backend.set_exporter pb (fun _scope flowid ->
      Filter.Table.find_opt pstore flowid
      |> Option.map (fun v -> Chunk.v ~kind:"toy" v));
  Backend.set_applier sb (fun scope flowid chunk ->
      applied := (scope, flowid) :: !applied;
      match chunk with
      | None -> Filter.Table.remove sstore flowid
      | Some c -> Filter.Table.replace sstore flowid c.Chunk.data);
  (pb, sb, pstore, sstore, applied)

let host i = Ipaddr.of_int (i + 1)

(* Host [i]'s multi-flow key, as [note_packet] exports it. *)
let key i = Filter.of_src_host (host i)

(* A packet from host [i] to host [j]: [note_packet] exports its flow
   key, then [key i], then [key j] unless [i = j]. *)
let pkt i j = Flow.make ~src:(host i) ~dst:(host j) ~sport:1000 ~dport:80 ()

let test_toy_replication_and_delete () =
  let engine = Engine.create () in
  let pb, sb, pstore, sstore, _ = toy engine in
  Engine.schedule_at engine 0.0 (fun () ->
      Filter.Table.replace pstore (Filter.of_key (pkt 1 2)) "flow";
      Filter.Table.replace pstore (key 1) "one";
      Filter.Table.replace pstore (key 2) "two";
      Backend.note_packet pb (pkt 1 2));
  Engine.schedule_at engine 0.1 (fun () ->
      (* A deletion of a sent key propagates. *)
      Filter.Table.remove pstore (key 1);
      Filter.Table.replace pstore (key 2) "two'";
      Backend.note_packet pb (pkt 1 2));
  Engine.run engine;
  Alcotest.(check (option string)) "key 2 replicated" (Some "two'")
    (Filter.Table.find_opt sstore (key 2));
  Alcotest.(check (option string)) "flow key replicated" (Some "flow")
    (Filter.Table.find_opt sstore (Filter.of_key (pkt 1 2)));
  Alcotest.(check bool) "key 1 deleted on the standby" false
    (Filter.Table.mem sstore (key 1));
  let st = Backend.stats sb in
  Alcotest.(check int) "one frame per packet" 2 st.Backend.frames_sent;
  Alcotest.(check int) "5 puts + 1 delete crossed the wire" 6
    st.Backend.entries_sent;
  Alcotest.(check int) "every entry applied" 6 st.Backend.entries_applied;
  Alcotest.(check int) "no dups" 0 st.Backend.dup_frames;
  Alcotest.(check bool) "delta bytes accounted" true
    (Backend.delta_bytes pb > 0)

let test_toy_delete_only_if_sent () =
  let engine = Engine.create () in
  let pb, sb, pstore, _, _ = toy engine in
  Engine.schedule_at engine 0.0 (fun () ->
      (* No key of this packet exists: nothing to send, not even a
         frame. *)
      Backend.note_packet pb (pkt 8 9));
  Engine.schedule_at engine 0.1 (fun () ->
      Filter.Table.replace pstore (key 8) "x";
      Backend.note_packet pb (pkt 8 9));
  Engine.schedule_at engine 0.2 (fun () ->
      (* Only key 8 was ever sent, so only key 8 is deleted. *)
      Filter.Table.remove pstore (key 8);
      Backend.note_packet pb (pkt 8 9));
  Engine.schedule_at engine 0.3 (fun () ->
      (* A delete is sent once: key 8 left the sent set. *)
      Backend.note_packet pb (pkt 8 9));
  Engine.run engine;
  let st = Backend.stats sb in
  Alcotest.(check int) "a put frame and a delete frame" 2
    st.Backend.frames_sent;
  Alcotest.(check int) "one put, one delete" 2 st.Backend.entries_sent

let test_toy_note_packet_entries () =
  let engine = Engine.create () in
  let pb, sb, pstore, _, applied = toy engine in
  let entries_after = ref [] in
  let record () =
    entries_after := (Backend.stats pb).Backend.entries_sent :: !entries_after
  in
  List.iter
    (fun f -> Filter.Table.replace pstore f "v")
    [ Filter.of_key (pkt 1 2); key 1; key 2; Filter.of_key (pkt 3 3); key 3 ];
  Engine.schedule_at engine 0.0 (fun () ->
      Backend.note_packet pb (pkt 1 2);
      record ();
      (* src = dst host: the host key is exported once. *)
      Backend.note_packet pb (pkt 3 3);
      record ());
  Engine.run engine;
  Alcotest.(check (list int)) "3 entries, then 2 more" [ 3; 5 ]
    (List.rev !entries_after);
  Alcotest.(check int) "one frame per packet" 2
    (Backend.stats sb).Backend.frames_sent;
  let scope_str = function
    | Scope.Per -> "per"
    | Scope.Multi -> "multi"
    | Scope.All -> "all"
  in
  Alcotest.(check (list string)) "flow key first, then src and dst hosts"
    (List.map
       (fun (s, f) -> scope_str s ^ " " ^ Filter.to_string f)
       [
         (Scope.Per, Filter.of_key (pkt 1 2));
         (Scope.Multi, key 1);
         (Scope.Multi, key 2);
         (Scope.Per, Filter.of_key (pkt 3 3));
         (Scope.Multi, key 3);
       ])
    (List.rev_map (fun (s, f) -> scope_str s ^ " " ^ Filter.to_string f) !applied)

let test_toy_batching () =
  let count_frames ?batch_bytes () =
    let engine = Engine.create () in
    let pb, sb, pstore, _, _ = toy ?batch_bytes engine in
    (* A frame is 16 bytes plus 32 + 3 + 40 = 75 per entry. *)
    List.iter
      (fun f -> Filter.Table.replace pstore f (String.make 40 'x'))
      [ Filter.of_key (pkt 1 2); key 1; key 2 ];
    Engine.schedule_at engine 0.0 (fun () -> Backend.note_packet pb (pkt 1 2));
    Engine.run engine;
    let st = Backend.stats sb in
    Alcotest.(check int) "all entries arrive regardless of batching" 3
      st.Backend.entries_applied;
    st.Backend.frames_sent
  in
  Alcotest.(check int) "no budget: one frame per packet" 1 (count_frames ());
  Alcotest.(check int) "a 170-byte budget fits two entries per frame" 2
    (count_frames ~batch_bytes:170 ());
  Alcotest.(check int) "a 100-byte budget fits one entry per frame" 3
    (count_frames ~batch_bytes:100 ())

let test_toy_dup_frames_dropped () =
  let engine = Engine.create () in
  let faults = Faults.create engine ~seed:3 () in
  Faults.set_link faults ~name:"toy.delta" ~dup:1.0 ();
  let pb, sb, pstore, sstore, _ = toy ~faults engine in
  Engine.schedule_at engine 0.0 (fun () ->
      Filter.Table.replace pstore (key 1) "a";
      Backend.note_packet pb (pkt 1 1));
  Engine.schedule_at engine 0.1 (fun () ->
      Filter.Table.replace pstore (key 1) "b";
      Backend.note_packet pb (pkt 1 1));
  Engine.run engine;
  Alcotest.(check (option string)) "latest value wins" (Some "b")
    (Filter.Table.find_opt sstore (key 1));
  let st = Backend.stats sb in
  Alcotest.(check int) "every frame's duplicate was dropped by seq"
    st.Backend.frames_sent st.Backend.dup_frames;
  Alcotest.(check int) "each frame applied exactly once"
    st.Backend.frames_sent st.Backend.frames_applied

let test_toy_gap_is_counted_and_healed () =
  let engine = Engine.create () in
  let faults = Faults.create engine ~seed:3 () in
  let pb, sb, pstore, sstore, _ = toy ~faults engine in
  Engine.schedule_at engine 0.0 (fun () ->
      (* Frame 1 is eaten by the link. *)
      Faults.set_link faults ~name:"toy.delta" ~drop:1.0 ();
      Filter.Table.replace pstore (key 1) "lost";
      Backend.note_packet pb (pkt 1 1));
  Engine.schedule_at engine 0.1 (fun () ->
      Faults.clear_link faults ~name:"toy.delta";
      Filter.Table.replace pstore (key 1) "resent";
      Backend.note_packet pb (pkt 1 1));
  Engine.run engine;
  let st = Backend.stats sb in
  Alcotest.(check int) "the surviving frame arrived past a gap" 1
    st.Backend.gap_frames;
  Alcotest.(check (option string)) "full-value entries self-heal"
    (Some "resent")
    (Filter.Table.find_opt sstore (key 1))

let test_toy_promote_drops_in_flight () =
  let engine = Engine.create () in
  let pb, sb, pstore, sstore, _ = toy engine in
  Engine.schedule_at engine 0.0 (fun () ->
      Filter.Table.replace pstore (key 1) "late";
      Backend.note_packet pb (pkt 1 1);
      (* Promote while the frame is still on the wire (2 ms latency):
         the standby now owns its state; the frame must not land. *)
      Backend.promote sb);
  Engine.run engine;
  Alcotest.(check bool) "in-flight frame discarded after promote" false
    (Filter.Table.mem sstore (key 1));
  Alcotest.(check int) "and counted as stale" 1
    (Backend.stats sb).Backend.stale_frames

let test_toy_drain_blocks_until_applied () =
  let engine = Engine.create () in
  let pb, _sb, pstore, sstore, _ = toy engine in
  let after_drain = ref None in
  Proc.spawn engine (fun () ->
      Filter.Table.replace pstore (key 1) "v";
      Backend.note_packet pb (pkt 1 1);
      Backend.drain pb;
      after_drain := Some (Filter.Table.find_opt sstore (key 1)));
  Engine.run engine;
  Alcotest.(check (option (option string)))
    "drain returns only once the standby applied the frame"
    (Some (Some "v")) !after_drain

(* One delta entry, rendered "<scope> <flowid> put <value>|del". *)
let entry_str scope flowid (chunk : Chunk.t option) =
  Printf.sprintf "%s %s %s"
    (match (scope : Scope.t) with
    | Scope.Per -> "per"
    | Scope.Multi -> "multi"
    | Scope.All -> "all")
    (Filter.to_string flowid)
    (match chunk with Some c -> "put " ^ c.Chunk.data | None -> "del")

(* The standby's applied entries, newest first. *)
let log_entries sb =
  let log = ref [] in
  Backend.set_applier sb (fun scope flowid chunk ->
      log := entry_str scope flowid chunk :: !log);
  log

(* Per-flow flowids are directed: each direction the standby was sent
   is deleted once when the state goes, and a direction it was never
   sent is not deleted at all. *)
let test_toy_directed_deletes () =
  let engine = Engine.create () in
  let pb, sb, pstore, _, _ = toy engine in
  let log = log_entries sb in
  let fwd = pkt 1 2 and other = pkt 3 4 in
  let rev = Flow.reverse fwd in
  let self = Flow.make ~src:(host 5) ~dst:(host 5) ~sport:7 ~dport:7 () in
  let put k = Filter.Table.replace pstore (Filter.of_key k) "v" in
  let del k = Filter.Table.remove pstore (Filter.of_key k) in
  let at t f = Engine.schedule_at engine t f in
  let note = Backend.note_packet pb in
  at 0.0 (fun () ->
      List.iter put [ fwd; rev; other; self ];
      List.iter note [ fwd; rev; other; self ]);
  at 0.1 (fun () ->
      List.iter del [ fwd; rev; other; self ];
      (* One delete per sent direction, then none. *)
      List.iter note [ fwd; rev; fwd; rev ];
      (* [other]'s reverse was never sent: no delete for it. *)
      List.iter note [ Flow.reverse other; other; other ];
      (* A key equal to its own reverse has one direction. *)
      List.iter note [ self; self ]);
  Engine.run engine;
  let put_entry k =
    entry_str Scope.Per (Filter.of_key k) (Some (Chunk.v ~kind:"toy" "v"))
  and del_entry k = entry_str Scope.Per (Filter.of_key k) None in
  Alcotest.(check (list string)) "one delete per sent direction"
    (List.map put_entry [ fwd; rev; other; self ]
    @ List.map del_entry [ fwd; rev; other; self ])
    (List.rev !log)

(* Random put/remove/note sequences over directed keys and hosts: the
   standby receives exactly the entries the boxed-flowid sent-key
   record ([Oracle.Sent_keys]) would have sent. Hosts 1-3 and ports
   1-2 make both directions of a connection, keys equal to their own
   reverse and shared hosts common. *)
type sent_op =
  | Put_flow of Flow.key * int
  | Remove_flow of Flow.key
  | Put_host of int * int
  | Remove_host of int
  | Note of Flow.key

let sent_op_gen =
  QCheck.Gen.(
    let key =
      map
        (fun (s, d, sp, dp) ->
          Flow.make ~src:(host s) ~dst:(host d) ~sport:sp ~dport:dp ())
        (quad (int_range 1 3) (int_range 1 3) (int_range 1 2) (int_range 1 2))
    in
    frequency
      [
        (3, map2 (fun k v -> Put_flow (k, v)) key (int_bound 9));
        (2, map (fun k -> Remove_flow k) key);
        (1, map2 (fun h v -> Put_host (h, v)) (int_range 1 3) (int_bound 9));
        (1, map (fun h -> Remove_host h) (int_range 1 3));
        (4, map (fun k -> Note k) key);
      ])

let print_sent_op = function
  | Put_flow (k, v) -> Printf.sprintf "put %s=%d" (Flow.to_string k) v
  | Remove_flow k -> "rm " ^ Flow.to_string k
  | Put_host (h, v) -> Printf.sprintf "put host%d=%d" h v
  | Remove_host h -> Printf.sprintf "rm host%d" h
  | Note k -> "note " ^ Flow.to_string k

let prop_sent_keys_match_model =
  QCheck.Test.make
    ~name:"delta entries == boxed-flowid sent-key model (random)" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_sent_op)
       QCheck.Gen.(list_size (int_range 1 60) sent_op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let pb, sb, pstore, _, _ = toy engine in
      let log = log_entries sb in
      let export _ flowid =
        Filter.Table.find_opt pstore flowid
        |> Option.map (fun v -> Chunk.v ~kind:"toy" v)
      in
      let model = Oracle.Sent_keys.create () and expected = ref [] in
      Engine.schedule_at engine 0.0 (fun () ->
          List.iter
            (function
              | Put_flow (k, v) ->
                Filter.Table.replace pstore (Filter.of_key k) (string_of_int v)
              | Remove_flow k -> Filter.Table.remove pstore (Filter.of_key k)
              | Put_host (h, v) ->
                Filter.Table.replace pstore (key h) (string_of_int v)
              | Remove_host h -> Filter.Table.remove pstore (key h)
              | Note k ->
                List.iter
                  (fun (scope, flowid, chunk) ->
                    expected := entry_str scope flowid chunk :: !expected)
                  (Oracle.Sent_keys.note_packet model export k);
                Backend.note_packet pb k)
            ops);
      Engine.run engine;
      !log = !expected)

(* --- PRADS over a shared backend ----------------------------------------- *)

(* Two instances on one store; traffic starts on nf1, a mid-run move
   shifts it to nf2. The move must transfer nothing: same store. *)
let test_shared_move_is_metadata_flip () =
  let fab = Fabric.create ~seed:7 () in
  let b = Backend.shared () in
  let prads = Prads.create ~backend:b () in
  let nf1, _ =
    Fabric.add_nf ~backend:b fab ~name:"prads1" ~impl:(Prads.impl prads)
      ~costs:Costs.prads
  in
  let nf2, _ =
    Fabric.add_nf ~backend:b fab ~name:"prads2" ~impl:(Prads.impl prads)
      ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create ~seed:8 () in
  let schedule, keys =
    Opennf_trace.Gen.steady_flows gen ~flows:20 ~rate:500.0 ~start:0.05
      ~duration:1.0 ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  let report = ref None in
  H.run_at fab ~at:0.5 (fun () ->
      match
        Move.run fab.ctrl
          (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any
             ~guarantee:Move.Loss_free ())
      with
      | Ok r -> report := Some r
      | Error e -> Alcotest.fail (Op_error.to_string e));
  let r = Option.get !report in
  Alcotest.(check int) "0 state bytes moved" 0 r.Move.state_bytes;
  Alcotest.(check int) "0 per-flow chunks moved" 0 r.Move.per_chunks;
  Alcotest.(check int) "0 multi-flow chunks moved" 0 r.Move.multi_chunks;
  Alcotest.(check (list int)) "loss-free" []
    (Audit.lost fab.audit ~nfs:[ "prads1"; "prads2" ]);
  Alcotest.(check (list int)) "duplicate-free" [] (Audit.duplicated fab.audit);
  Alcotest.(check int) "every flow in the one store" (List.length keys)
    (Prads.connection_count prads)

(* Shared vs local oracle under random churn: the same scenario run the
   classic way (local stores, real state transfer) and the shared way
   must agree on everything observable. *)
type churn_cfg = { seed : int; flows : int; rate : float; move_at : float }

let churn_gen =
  QCheck.Gen.(
    map
      (fun (seed, flows, rate_k, at_k) ->
        {
          seed;
          flows = 3 + flows;
          rate = 200.0 +. (100.0 *. float_of_int rate_k);
          move_at = 0.2 +. (0.15 *. float_of_int at_k);
        })
      (tup4 (int_bound 10_000) (int_bound 20) (int_bound 6) (int_bound 4)))

let churn_arb =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "{seed=%d flows=%d rate=%.0f move_at=%.2f}" c.seed c.flows
        c.rate c.move_at)
    churn_gen

let run_local_oracle c =
  let tb = H.prads_pair ~seed:c.seed ~flows:c.flows ~rate:c.rate () in
  let report = ref None in
  H.run_with tb ~at:c.move_at (fun () ->
      match
        Move.run tb.H.fab.ctrl
          (Move.spec ~src:tb.H.nf1 ~dst:tb.H.nf2 ~filter:Filter.any
             ~guarantee:Move.Loss_free ())
      with
      | Ok r -> report := Some r
      | Error e -> Alcotest.fail (Op_error.to_string e));
  (tb, Option.get !report)

let run_shared c =
  let fab = Fabric.create ~seed:c.seed () in
  let b = Backend.shared () in
  let prads = Prads.create ~backend:b () in
  let nf1, _ =
    Fabric.add_nf ~backend:b fab ~name:"prads1" ~impl:(Prads.impl prads)
      ~costs:Costs.prads
  in
  let nf2, _ =
    Fabric.add_nf ~backend:b fab ~name:"prads2" ~impl:(Prads.impl prads)
      ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create ~seed:(c.seed + 1) () in
  let schedule, _ =
    Opennf_trace.Gen.steady_flows gen ~flows:c.flows ~rate:c.rate ~start:0.05
      ~duration:2.0 ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  let report = ref None in
  H.run_at fab ~at:c.move_at (fun () ->
      match
        Move.run fab.ctrl
          (Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any
             ~guarantee:Move.Loss_free ())
      with
      | Ok r -> report := Some r
      | Error e -> Alcotest.fail (Op_error.to_string e));
  (fab, prads, Option.get !report)

let prop_shared_matches_local_oracle =
  QCheck.Test.make ~name:"shared backend vs local oracle (random churn)"
    ~count:10 churn_arb (fun c ->
      let tb, local_report = run_local_oracle c in
      let fab, prads, shared_report = run_shared c in
      let nfs = [ "prads1"; "prads2" ] in
      let local_pkts, _, _ = Prads.stats tb.H.prads1 in
      let local_pkts2, _, _ = Prads.stats tb.H.prads2 in
      let shared_pkts, _, _ = Prads.stats prads in
      Audit.lost fab.audit ~nfs = []
      && Audit.duplicated fab.audit = []
      && Audit.lost tb.H.fab.audit ~nfs = []
      && shared_report.Move.state_bytes = 0
      && local_report.Move.state_bytes > 0
      && Prads.connection_count prads
         = Prads.connection_count tb.H.prads1
           + Prads.connection_count tb.H.prads2
      && shared_pkts = local_pkts + local_pkts2)

(* --- PRADS over a replicated pair ---------------------------------------- *)

type rbed = {
  fab : Fabric.t;
  nf1 : Controller.nf;
  nf2 : Controller.nf;
  prads1 : Prads.t;
  prads2 : Prads.t;
  pb : Backend.t;
  sb : Backend.t;
  last_at : float;
}

(* Mirrors H.prads_pair exactly (same seeds, same schedule) so a
   replicated run can be compared 1:1 against the plain local run. *)
let replicated_bed ?(seed = 7) ?(flows = 6) ?(rate = 300.0) ?(duration = 0.5)
    ?batch_bytes () =
  let fab = Fabric.create ~seed () in
  let pb, sb =
    Backend.replicated_pair fab.engine ~name:"fo" ?batch_bytes
      ~faults:fab.faults ()
  in
  let prads1 = Prads.create ~backend:pb () in
  let prads2 = Prads.create ~backend:sb () in
  let nf1, _ =
    Fabric.add_nf ~backend:pb fab ~name:"prads1" ~impl:(Prads.impl prads1)
      ~costs:Costs.prads
  in
  let nf2, _ =
    Fabric.add_nf ~backend:sb fab ~name:"prads2" ~impl:(Prads.impl prads2)
      ~costs:Costs.prads
  in
  let gen = Opennf_trace.Gen.create ~seed:(seed + 1) () in
  let schedule, _ =
    Opennf_trace.Gen.steady_flows gen ~flows ~rate ~start:0.05 ~duration ()
  in
  let last_at =
    List.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 schedule
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  { fab; nf1; nf2; prads1; prads2; pb; sb; last_at }

let test_replicated_standby_tracks_primary () =
  let b = replicated_bed () in
  Fabric.run b.fab;
  check_digests_equal "catch-up" (Prads.impl b.prads1) (Prads.impl b.prads2);
  let st = Backend.stats b.sb in
  Alcotest.(check int) "fault-free: every frame applied"
    st.Backend.frames_sent st.Backend.frames_applied;
  Alcotest.(check int) "no dups" 0 st.Backend.dup_frames;
  Alcotest.(check int) "no gaps" 0 st.Backend.gap_frames;
  Alcotest.(check bool) "the stream cost bytes" true
    (Backend.delta_bytes b.sb > 0);
  (* The primary behaves exactly like a backend-less local instance:
     replication rides the packet path and adds nothing to it. *)
  let tb = H.prads_pair ~seed:7 ~flows:6 ~rate:300.0 ~duration:0.5 () in
  Fabric.run tb.H.fab;
  check_digests_equal "local oracle" (Prads.impl tb.H.prads1)
    (Prads.impl b.prads1);
  Alcotest.(check (list int)) "identical processing order"
    (Audit.processed_order ~nf:"prads1" tb.H.fab.audit)
    (Audit.processed_order ~nf:"prads1" b.fab.audit)

let test_replicated_move_is_zero_bytes () =
  let b = replicated_bed ~duration:0.8 () in
  let report = ref None in
  H.run_at b.fab ~at:0.4 (fun () ->
      match
        Move.run b.fab.ctrl
          (Move.spec ~src:b.nf1 ~dst:b.nf2 ~filter:Filter.any
             ~guarantee:Move.Loss_free ())
      with
      | Ok r -> report := Some r
      | Error e -> Alcotest.fail (Op_error.to_string e));
  let r = Option.get !report in
  Alcotest.(check int) "move over the delta stream: 0 state bytes" 0
    r.Move.state_bytes;
  Alcotest.(check (list int)) "loss-free" []
    (Audit.lost b.fab.audit ~nfs:[ "prads1"; "prads2" ])

(* Crash the primary at [crash_time], promote the standby once every
   in-flight frame has landed, and leave the rest of the traffic to be
   dropped at the dead instance (packet loss during a surprise failure
   is the datapath's problem; state loss is ours). *)
let run_crash ?dup ?(seed = 7) ?(flows = 4) ?(rate = 100.0) ?(duration = 0.3)
    ~crash_time () =
  let b = replicated_bed ~seed ~flows ~rate ~duration () in
  (match dup with
  | Some d -> Faults.set_link b.fab.faults ~name:"fo.delta" ~dup:d ()
  | None -> ());
  Faults.crash_at b.fab.faults ~node:"prads1" crash_time;
  Engine.schedule_at b.fab.engine
    (Float.max crash_time b.last_at +. 0.2)
    (fun () -> Backend.promote b.sb);
  Fabric.run b.fab;
  b

(* Every delta boundary of the scenario: frames are cut when a packet is
   processed, so the instants strictly between consecutive processings
   (plus one before the first and one after the last) enumerate every
   point the crash can split the stream. *)
let delta_boundaries () =
  let b = replicated_bed ~flows:4 ~rate:100.0 ~duration:0.3 () in
  Fabric.run b.fab;
  let times =
    Audit.processed_order ~nf:"prads1" b.fab.audit
    |> List.filter_map (fun id -> Audit.process_time b.fab.audit ~pkt:id)
  in
  let rec mids = function
    | a :: (bt :: _ as rest) ->
      if bt > a then ((a +. bt) /. 2.0) :: mids rest else mids rest
    | _ -> []
  in
  match times with
  | [] -> Alcotest.fail "scenario processed no packets"
  | t0 :: _ ->
    let last = List.fold_left Float.max 0.0 times in
    ((t0 /. 2.0) :: mids times) @ [ last +. 0.05 ]

let test_crash_at_every_delta_boundary () =
  let boundaries = delta_boundaries () in
  Alcotest.(check bool) "enough boundaries to mean anything" true
    (List.length boundaries > 10);
  List.iter
    (fun crash_time ->
      let b = run_crash ~crash_time () in
      if not (digests_equal (Prads.impl b.prads1) (Prads.impl b.prads2)) then
        Alcotest.failf
          "standby != frozen primary after crash at t=%.6f (crash between \
           frames must lose no state)"
          crash_time)
    boundaries

let test_crash_boundaries_with_duplication () =
  (* Same sweep (thinned) with every delta frame duplicated: seq dedup
     must make re-delivery invisible. *)
  let boundaries = delta_boundaries () in
  List.iteri
    (fun i crash_time ->
      if i mod 3 = 0 then begin
        let b = run_crash ~dup:1.0 ~crash_time () in
        if not (digests_equal (Prads.impl b.prads1) (Prads.impl b.prads2)) then
          Alcotest.failf "state diverged under frame duplication at t=%.6f"
            crash_time;
        if
          crash_time > 0.06
          && (Backend.stats b.sb).Backend.dup_frames = 0
        then Alcotest.failf "dup=1.0 but no duplicate frame was dropped"
      end)
    boundaries

type crash_cfg = {
  c_seed : int;
  c_flows : int;
  c_rate : float;
  c_crash : float;
  c_dup : float;
  c_jitter : float;
}

let crash_gen =
  QCheck.Gen.(
    map
      (fun (seed, flows, rate_k, crash_k, dup_k, jitter_k) ->
        {
          c_seed = seed;
          c_flows = 3 + flows;
          c_rate = 150.0 +. (75.0 *. float_of_int rate_k);
          c_crash = 0.05 +. (0.055 *. float_of_int crash_k);
          c_dup = 0.25 *. float_of_int dup_k;
          c_jitter = 0.0005 *. float_of_int jitter_k;
        })
      (tup6 (int_bound 10_000) (int_bound 12) (int_bound 6) (int_bound 10)
         (int_bound 3) (int_bound 2)))

let crash_arb =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "{seed=%d flows=%d rate=%.0f crash=%.3f dup=%.2f jit=%.4f}"
        c.c_seed c.c_flows c.c_rate c.c_crash c.c_dup c.c_jitter)
    crash_gen

let prop_replicated_survives_random_crash =
  QCheck.Test.make
    ~name:"standby == frozen primary at promote (random churn+crash)"
    ~count:12 crash_arb (fun c ->
      let b = replicated_bed ~seed:c.c_seed ~flows:c.c_flows ~rate:c.c_rate
          ~duration:0.6 ()
      in
      if c.c_dup > 0.0 || c.c_jitter > 0.0 then
        Faults.set_link b.fab.faults ~name:"fo.delta" ~dup:c.c_dup
          ~jitter:c.c_jitter ();
      Faults.crash_at b.fab.faults ~node:"prads1" c.c_crash;
      Engine.schedule_at b.fab.engine
        (Float.max c.c_crash b.last_at +. 0.3)
        (fun () -> Backend.promote b.sb);
      Fabric.run b.fab;
      digests_equal (Prads.impl b.prads1) (Prads.impl b.prads2))

let suite =
  [
    Alcotest.test_case "store registry: one name, one object" `Quick
      test_get_store_identity;
    Alcotest.test_case "store registry: type witness enforced" `Quick
      test_get_store_type_safety;
    Alcotest.test_case "routing predicates" `Quick test_routing_predicates;
    Alcotest.test_case "delta link: replicate and delete" `Quick
      test_toy_replication_and_delete;
    Alcotest.test_case "delta link: byte-budget batching" `Quick
      test_toy_batching;
    Alcotest.test_case "delta link: duplicate frames dropped" `Quick
      test_toy_dup_frames_dropped;
    Alcotest.test_case "delta link: gaps counted, state heals" `Quick
      test_toy_gap_is_counted_and_healed;
    Alcotest.test_case "delta link: promote drops in-flight" `Quick
      test_toy_promote_drops_in_flight;
    Alcotest.test_case "delta link: drain blocks until applied" `Quick
      test_toy_drain_blocks_until_applied;
    Alcotest.test_case "shared backend: move is a metadata flip" `Quick
      test_shared_move_is_metadata_flip;
    Alcotest.test_case "replicated: standby tracks primary" `Quick
      test_replicated_standby_tracks_primary;
    Alcotest.test_case "replicated: in-scope move is 0 bytes" `Quick
      test_replicated_move_is_zero_bytes;
    Alcotest.test_case "crash at every delta boundary" `Slow
      test_crash_at_every_delta_boundary;
    Alcotest.test_case "crash boundaries under duplication" `Slow
      test_crash_boundaries_with_duplication;
    Alcotest.test_case "delta link: delete only if sent" `Quick
      test_toy_delete_only_if_sent;
    Alcotest.test_case "delta link: note_packet entries per frame" `Quick
      test_toy_note_packet_entries;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_shared_matches_local_oracle;
        prop_replicated_survives_random_crash;
      ]
  @ [
      Alcotest.test_case "delta link: one delete per sent direction" `Quick
        test_toy_directed_deletes;
    ]
