(* Tests for the NF runtime: event actions and flags, buffering and
   release order, tombstones, streaming gets, costs, and the in-service
   synchronization that keeps exports loss-free. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
module Protocol = Opennf_sb.Protocol
module Runtime = Opennf_sb.Runtime
module Nf_api = Opennf_sb.Nf_api
open Opennf_net
open Opennf_state

let ip = Ipaddr.v
let key = Flow.make ~src:(ip 10 0 0 1) ~dst:(ip 172 16 0 1) ~sport:1234 ~dport:80 ()
let flow_b = Flow.make ~src:(ip 10 0 0 2) ~dst:(ip 172 16 0 1) ~sport:1235 ~dport:80 ()
let flow_c = Flow.make ~src:(ip 10 0 0 3) ~dst:(ip 172 16 0 1) ~sport:1236 ~dport:80 ()

(* A probe NF: records processed packet ids, exports one chunk per seen
   flow. *)
type probe = { mutable seen : int list; flows : unit Store.Perflow.t }

let probe_impl p =
  {
    Nf_api.kind = "probe";
    process_packet =
      (fun pkt ->
        p.seen <- pkt.Packet.id :: p.seen;
        Store.Perflow.set p.flows pkt.Packet.key ());
    list_perflow =
      (fun filter ->
        List.map (fun (k, _) -> Filter.of_key k)
          (Store.Perflow.matching p.flows filter));
    export_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | Some k when Store.Perflow.mem p.flows k ->
          Some (Chunk.v ~kind:"probe" (String.make 64 'p'))
        | _ -> None);
    import_perflow =
      (fun flowid _ ->
        match Filter.exact_key flowid with
        | Some k -> Store.Perflow.set p.flows k ()
        | None -> ());
    delete_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | Some k -> Store.Perflow.remove p.flows k
        | None -> ());
    list_multiflow = (fun _ -> []);
    export_multiflow = (fun _ -> None);
    import_multiflow = (fun _ _ -> ());
    delete_multiflow = (fun _ -> ());
    export_allflows = (fun () -> []);
    import_allflows = (fun _ -> ());
  }

type bed = {
  e : Engine.t;
  rt : Runtime.t;
  probe : probe;
  replies : Protocol.reply list ref;
}

let make_bed ?(costs = Costs.dummy) () =
  let e = Engine.create () in
  let audit = Audit.create e in
  let probe = { seen = []; flows = Store.Perflow.create () } in
  let rt = Runtime.create e audit ~name:"nf" ~impl:(probe_impl probe) ~costs () in
  let replies = ref [] in
  let ch = Channel.create e ~latency:0.0001 ~name:"nf->ctrl" () in
  Channel.set_handler ch (fun r -> replies := r :: !replies);
  Runtime.set_controller rt ch;
  { e; rt; probe; replies }

let packet ?(id = 1) ?(k = key) ?(flags = []) () =
  Packet.create ~id ~key:k ~flags ~sent_at:0.0 ()

let events b =
  List.filter_map
    (function
      | Protocol.Event { packet; disposition; _ } ->
        Some (packet.Packet.id, disposition)
      | _ -> None)
    (List.rev !(b.replies))

let test_process_normally () =
  let b = make_bed () in
  Runtime.receive b.rt (packet ~id:5 ());
  Engine.run b.e;
  Alcotest.(check (list int)) "processed" [ 5 ] b.probe.seen;
  Alcotest.(check int) "counter" 1 (Runtime.processed_count b.rt)

let test_event_drop () =
  let b = make_bed () in
  Runtime.control b.rt (Protocol.Enable_events { filter = Filter.any; action = Protocol.Drop });
  Runtime.receive b.rt (packet ~id:9 ());
  Engine.run b.e;
  Alcotest.(check (list int)) "not processed" [] b.probe.seen;
  Alcotest.(check int) "dropped" 1 (Runtime.dropped_count b.rt);
  Alcotest.(check (list (pair int bool))) "event raised with drop"
    [ (9, true) ]
    (List.map (fun (id, d) -> (id, d = Protocol.Drop)) (events b))

let test_event_drop_do_not_drop_flag () =
  let b = make_bed () in
  Runtime.control b.rt (Protocol.Enable_events { filter = Filter.any; action = Protocol.Drop });
  let p = packet ~id:3 () in
  p.Packet.do_not_drop <- true;
  Runtime.receive b.rt p;
  Engine.run b.e;
  Alcotest.(check (list int)) "processed despite drop filter" [ 3 ] b.probe.seen;
  match events b with
  | [ (3, Protocol.Process) ] -> ()
  | _ -> Alcotest.fail "expected a processed event"

let test_event_buffer_and_release () =
  let b = make_bed () in
  Runtime.control b.rt (Protocol.Enable_events { filter = Filter.any; action = Protocol.Buffer });
  Runtime.receive b.rt (packet ~id:1 ());
  Runtime.receive b.rt (packet ~id:2 ());
  Engine.run b.e;
  Alcotest.(check (list int)) "held" [] b.probe.seen;
  Alcotest.(check int) "buffered" 2 (Runtime.buffered_count b.rt);
  Runtime.control b.rt (Protocol.Disable_events { filter = Filter.any });
  Engine.run b.e;
  Alcotest.(check (list int)) "released in order" [ 1; 2 ] (List.rev b.probe.seen)

let test_released_before_later_arrivals () =
  let b = make_bed ~costs:{ Costs.dummy with Costs.proc_time = 0.001 } () in
  Runtime.control b.rt (Protocol.Enable_events { filter = Filter.any; action = Protocol.Buffer });
  Runtime.receive b.rt (packet ~id:1 ());
  Runtime.receive b.rt (packet ~id:2 ());
  (* Disable at t=0 (releasing 1,2), and let 3 arrive right after: the
     released packets must be processed before it. *)
  Engine.schedule b.e ~delay:0.0 (fun () ->
      Runtime.control b.rt (Protocol.Disable_events { filter = Filter.any });
      Runtime.receive b.rt (packet ~id:3 ()));
  Engine.run b.e;
  Alcotest.(check (list int)) "buffer drains first" [ 1; 2; 3 ]
    (List.rev b.probe.seen)

let test_buffer_do_not_buffer_flag () =
  let b = make_bed () in
  Runtime.control b.rt (Protocol.Enable_events { filter = Filter.any; action = Protocol.Buffer });
  let p = packet ~id:8 () in
  p.Packet.do_not_buffer <- true;
  Runtime.receive b.rt p;
  Engine.run b.e;
  Alcotest.(check (list int)) "processed through buffer filter" [ 8 ] b.probe.seen;
  match events b with
  | [ (8, Protocol.Process) ] -> ()
  | _ -> Alcotest.fail "expected processed event after do-not-buffer"

let test_event_process_action () =
  let b = make_bed () in
  Runtime.control b.rt (Protocol.Enable_events { filter = Filter.any; action = Protocol.Process });
  Runtime.receive b.rt (packet ~id:4 ());
  Engine.run b.e;
  Alcotest.(check (list int)) "processed" [ 4 ] b.probe.seen;
  match events b with
  | [ (4, Protocol.Process) ] -> ()
  | _ -> Alcotest.fail "expected processed event"

let test_event_filter_scoping () =
  let b = make_bed () in
  Runtime.control b.rt
    (Protocol.Enable_events
       { filter = Filter.of_src_host (ip 10 0 0 1); action = Protocol.Drop });
  let other = Flow.make ~src:(ip 9 9 9 9) ~dst:(ip 8 8 8 8) ~sport:1 ~dport:2 () in
  Runtime.receive b.rt (packet ~id:1 ());
  (* Reverse direction of a matching flow also triggers. *)
  Runtime.receive b.rt (packet ~id:2 ~k:(Flow.reverse key) ());
  Runtime.receive b.rt (packet ~id:3 ~k:other ());
  Engine.run b.e;
  Alcotest.(check (list int)) "only the foreign packet processed" [ 3 ]
    b.probe.seen;
  Alcotest.(check int) "two events" 2 (List.length (events b))

let test_tombstones_drop_moved_flows () =
  let b = make_bed () in
  Runtime.receive b.rt (packet ~id:1 ());
  Engine.run b.e;
  Runtime.control b.rt (Protocol.Del_perflow { req = 1; flowids = [ Filter.of_key key ] });
  Engine.run b.e;
  Runtime.receive b.rt (packet ~id:2 ());
  Engine.run b.e;
  Alcotest.(check (list int)) "post-del packet dropped" [ 1 ]
    (List.rev b.probe.seen);
  Alcotest.(check int) "tombstone counter" 1 (Runtime.tombstone_dropped b.rt);
  (* A put for the flow clears the tombstone. *)
  Runtime.control b.rt
    (Protocol.Put_perflow
       { req = 2; chunks = [ (Filter.of_key key, Chunk.v ~kind:"probe" "x") ] });
  Engine.run b.e;
  Runtime.receive b.rt (packet ~id:3 ());
  Engine.run b.e;
  Alcotest.(check (list int)) "processing resumes" [ 1; 3 ] (List.rev b.probe.seen)

(* The marker set against the list it replaced ({!Oracle.Tombstones}),
   under random add/clear interleavings over a small key universe, with
   flowids of every shape: exact in both directions, exact with an app
   field or a TCP flag, host, prefix, proto-only, app-only and any. *)
let tombstone_flowid c a b =
  let ip a = ip 10 0 0 (a land 3) in
  let k =
    Flow.make ~src:(ip a) ~dst:(ip b)
      ~proto:(if (a + b) land 1 = 0 then Flow.Tcp else Flow.Udp)
      ~sport:(80 + (a mod 3)) ~dport:(80 + (b mod 3)) ()
  in
  let app = if c land 16 = 0 then "u" else "v" in
  match c mod 10 with
  | 0 | 1 -> (k, Filter.of_key k)
  | 2 -> (k, Filter.of_key (Flow.reverse k))
  | 3 -> (k, { (Filter.of_key k) with Filter.app = Some app })
  | 4 -> (k, { (Filter.of_key k) with Filter.tcp_flag = Some Packet.Syn })
  | 5 -> (k, Filter.of_src_host (ip a))
  | 6 -> (k, Filter.of_src_prefix (Ipaddr.Prefix.make (ip a) 31))
  | 7 -> (k, Filter.make ~proto:Flow.Udp ~dst_port:(80 + (b mod 3)) ())
  | 8 -> (k, Filter.of_app app)
  | _ -> (k, Filter.any)

let tombstones_equiv =
  QCheck.Test.make ~name:"tombstones: keyed set == list oracle (random)"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 80) (triple small_nat small_nat small_nat))
    (fun ops ->
      let set = Opennf_sb.Tombstones.create () in
      let oracle = Oracle.Tombstones.create () in
      List.for_all
        (fun (c, a, b) ->
          let k, flowid = tombstone_flowid (c / 2) a b in
          if c land 1 = 0 then begin
            Opennf_sb.Tombstones.add set flowid;
            Oracle.Tombstones.add oracle flowid
          end
          else begin
            Opennf_sb.Tombstones.clear_for set flowid;
            Oracle.Tombstones.clear_for oracle flowid
          end;
          (* Query after some ops only, so adds and clears also meet
             markers no query has filed yet. *)
          (c / 32) land 1 = 1
          || List.for_all
               (fun k ->
                 let got = Opennf_sb.Tombstones.matches set k in
                 got = Oracle.Tombstones.matches oracle k
                 || QCheck.Test.fail_reportf "after %s of %s: %s matches %b"
                      (if c land 1 = 0 then "add" else "clear")
                      (Filter.to_string flowid) (Flow.to_string k) got)
               [ k; Flow.reverse k; fst (tombstone_flowid 0 b (a + 1)) ])
        ops)

let test_get_streaming_pieces () =
  let b = make_bed () in
  List.iteri
    (fun i _ ->
      Runtime.receive b.rt
        (packet ~id:i
           ~k:(Flow.make ~src:(ip 10 0 0 (1 + i)) ~dst:(ip 172 16 0 1) ~sport:i ~dport:80 ())
           ()))
    [ (); (); () ];
  Engine.run b.e;
  Runtime.control b.rt
    (Protocol.Get_perflow
       { req = 42; filter = Filter.any; stream = true; late_lock = false; compress = false });
  Engine.run b.e;
  let pieces =
    List.filter (function Protocol.Piece { req = 42; _ } -> true | _ -> false)
      !(b.replies)
  in
  let dones =
    List.filter (function Protocol.Done { req = 42; _ } -> true | _ -> false)
      !(b.replies)
  in
  Alcotest.(check int) "three pieces" 3 (List.length pieces);
  Alcotest.(check int) "one done" 1 (List.length dones)

let test_get_bulk () =
  let b = make_bed () in
  Runtime.receive b.rt (packet ~id:1 ());
  Engine.run b.e;
  Runtime.control b.rt
    (Protocol.Get_perflow
       { req = 1; filter = Filter.any; stream = false; late_lock = false; compress = false });
  Engine.run b.e;
  match
    List.find_opt (function Protocol.Done { req = 1; _ } -> true | _ -> false)
      !(b.replies)
  with
  | Some (Protocol.Done { chunks; _ }) ->
    Alcotest.(check int) "one chunk in done" 1 (List.length chunks)
  | _ -> Alcotest.fail "no done"

let test_get_charges_serialization_time () =
  let costs = { Costs.dummy with Costs.serialize_chunk = 0.01 } in
  let b = make_bed ~costs () in
  for i = 0 to 9 do
    Runtime.receive b.rt
      (packet ~id:i
         ~k:(Flow.make ~src:(ip 10 0 0 (1 + i)) ~dst:(ip 172 16 0 1) ~sport:i ~dport:80 ())
         ())
  done;
  Engine.run b.e;
  Runtime.control b.rt
    (Protocol.Get_perflow
       { req = 1; filter = Filter.any; stream = false; late_lock = false; compress = false });
  let t0 = Engine.now b.e in
  Engine.run b.e;
  Alcotest.(check bool) "10 chunks take >= 100ms" true (Engine.now b.e -. t0 >= 0.1)

let test_late_lock_locks_at_export () =
  let costs = { Costs.dummy with Costs.serialize_chunk = 0.005 } in
  let b = make_bed ~costs () in
  Runtime.receive b.rt (packet ~id:1 ());
  Engine.run b.e;
  Runtime.control b.rt
    (Protocol.Get_perflow
       { req = 1; filter = Filter.any; stream = true; late_lock = true; compress = false });
  (* A packet arriving after the flow's chunk is captured is dropped and
     evented, not processed. *)
  Engine.schedule b.e ~delay:0.006 (fun () -> Runtime.receive b.rt (packet ~id:2 ()));
  Engine.run b.e;
  Alcotest.(check (list int)) "second packet locked out" [ 1 ]
    (List.rev b.probe.seen);
  Alcotest.(check bool) "drop event raised" true
    (List.exists (fun (id, d) -> id = 2 && d = Protocol.Drop) (events b))

(* Three flows in the snapshot, exported 5 ms apart; returns the bed
   right after the get was issued and the flows in export order. *)
let late_lock_bed () =
  let costs = { Costs.dummy with Costs.serialize_chunk = 0.005 } in
  let b = make_bed ~costs () in
  List.iteri
    (fun i k -> Runtime.receive b.rt (packet ~id:(100 + i) ~k ()))
    [ key; flow_b; flow_c ];
  Engine.run b.e;
  b.probe.seen <- [];
  Runtime.control b.rt
    (Protocol.Get_perflow
       { req = 1; filter = Filter.any; stream = true; late_lock = true; compress = false });
  let order =
    List.filter_map Filter.exact_key
      ((probe_impl b.probe).Nf_api.list_perflow Filter.any)
  in
  (b, order)

let test_late_lock_drops_flow_new_after_snapshot () =
  let b, _ = late_lock_bed () in
  (* First seen mid-get: never in the snapshot, so it is locked from the
     start instead of growing state no get will export. *)
  let fresh = Flow.make ~src:(ip 10 0 0 9) ~dst:(ip 172 16 0 1) ~sport:9 ~dport:80 () in
  Engine.schedule b.e ~delay:0.002 (fun () ->
      Runtime.receive b.rt (packet ~id:7 ~k:(Flow.reverse fresh) ()));
  Engine.run b.e;
  Alcotest.(check (list int)) "not processed" [] b.probe.seen;
  Alcotest.(check (list (pair int bool))) "drop event raised"
    [ (7, true) ]
    (List.map (fun (id, d) -> (id, d = Protocol.Drop)) (events b))

let test_late_lock_processes_unexported_flow () =
  let b, order = late_lock_bed () in
  let last = List.nth order 2 in
  (* The last flow's export starts at 10 ms; both directions of it are
     still unlocked at 2 ms and 7 ms. *)
  Engine.schedule b.e ~delay:0.002 (fun () ->
      Runtime.receive b.rt (packet ~id:7 ~k:last ()));
  Engine.schedule b.e ~delay:0.007 (fun () ->
      Runtime.receive b.rt (packet ~id:8 ~k:(Flow.reverse last) ()));
  Engine.run b.e;
  Alcotest.(check (list int)) "processed before its export" [ 7; 8 ]
    (List.rev b.probe.seen);
  Alcotest.(check int) "no event" 0 (List.length (events b))

let test_late_lock_one_disable_unlocks () =
  let b, order = late_lock_bed () in
  Engine.run b.e;
  Runtime.control b.rt (Protocol.Disable_events { filter = Filter.any });
  Engine.run b.e;
  List.iteri
    (fun i k -> Runtime.receive b.rt (packet ~id:(10 + i) ~k ()))
    (order @ [ Flow.make ~src:(ip 10 0 0 9) ~dst:(ip 172 16 0 1) ~sport:9 ~dport:80 () ]);
  Engine.run b.e;
  Alcotest.(check (list int)) "every flow processed again" [ 10; 11; 12; 13 ]
    (List.rev b.probe.seen);
  Alcotest.(check int) "no event" 0 (List.length (events b))

let test_export_waits_for_in_service_packet () =
  (* A packet already on the CPU when the get arrives must have its
     update captured (the per-connection-mutex behaviour, §7). *)
  let costs = { Costs.dummy with Costs.proc_time = 0.010 } in
  let b = make_bed ~costs () in
  Runtime.receive b.rt (packet ~id:1 ());
  (* Get arrives 2ms into the 10ms service. *)
  Engine.schedule b.e ~delay:0.002 (fun () ->
      Runtime.control b.rt
        (Protocol.Get_perflow
           { req = 1; filter = Filter.any; stream = false; late_lock = false; compress = false }));
  Engine.run b.e;
  match
    List.find_opt (function Protocol.Done { req = 1; _ } -> true | _ -> false)
      !(b.replies)
  with
  | Some (Protocol.Done { chunks; _ }) ->
    Alcotest.(check int) "the in-flight packet's flow was captured" 1
      (List.length chunks)
  | _ -> Alcotest.fail "no done"

let test_processing_penalty_during_export () =
  let costs =
    { Costs.dummy with Costs.proc_time = 0.001; Costs.serialize_chunk = 0.05;
      Costs.export_penalty = 0.5 }
  in
  let b = make_bed ~costs () in
  Runtime.receive b.rt (packet ~id:1 ());
  Engine.run b.e;
  (* Start a slow export, then time a packet processed during it. *)
  Runtime.control b.rt
    (Protocol.Get_perflow
       { req = 1; filter = Filter.of_src_host (ip 99 0 0 1); stream = false;
         late_lock = false; compress = false });
  ignore b;
  Engine.run b.e;
  Alcotest.(check bool) "busy flag cleared after ops" false (Runtime.busy b.rt)

let suite =
  [
    Alcotest.test_case "runtime: processes packets" `Quick test_process_normally;
    Alcotest.test_case "runtime: drop action" `Quick test_event_drop;
    Alcotest.test_case "runtime: do-not-drop flag" `Quick
      test_event_drop_do_not_drop_flag;
    Alcotest.test_case "runtime: buffer & release" `Quick
      test_event_buffer_and_release;
    Alcotest.test_case "runtime: release ordering" `Quick
      test_released_before_later_arrivals;
    Alcotest.test_case "runtime: do-not-buffer flag" `Quick
      test_buffer_do_not_buffer_flag;
    Alcotest.test_case "runtime: process action" `Quick test_event_process_action;
    Alcotest.test_case "runtime: filter scoping" `Quick test_event_filter_scoping;
    Alcotest.test_case "runtime: tombstones" `Quick test_tombstones_drop_moved_flows;
    QCheck_alcotest.to_alcotest tombstones_equiv;
    Alcotest.test_case "runtime: streaming get" `Quick test_get_streaming_pieces;
    Alcotest.test_case "runtime: bulk get" `Quick test_get_bulk;
    Alcotest.test_case "runtime: serialization time" `Quick
      test_get_charges_serialization_time;
    Alcotest.test_case "runtime: late locking" `Quick
      test_late_lock_locks_at_export;
    Alcotest.test_case "runtime: late lock drops a flow new after the snapshot"
      `Quick test_late_lock_drops_flow_new_after_snapshot;
    Alcotest.test_case "runtime: late lock processes an unexported flow"
      `Quick test_late_lock_processes_unexported_flow;
    Alcotest.test_case "runtime: late lock lifted by one disable" `Quick
      test_late_lock_one_disable_unlocks;
    Alcotest.test_case "runtime: export waits for in-service packet" `Quick
      test_export_waits_for_in_service_packet;
    Alcotest.test_case "runtime: export penalty bookkeeping" `Quick
      test_processing_penalty_during_export;
  ]
