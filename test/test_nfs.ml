(* Tests for the NF implementations: IDS, PRADS, proxy, NAT, RE codec,
   dummy. Each is exercised directly through its [impl] (no simulator),
   checking detection logic, the state taxonomy, serialization
   roundtrips and merge-on-import semantics. *)

module Nf_api = Opennf_sb.Nf_api
open Opennf_net
open Opennf_state

let ip = Ipaddr.v

let mk_packet =
  let next = ref 1000 in
  fun ?(flags = []) ?(seq = 0) ?(payload = "") key ->
    incr next;
    Packet.create ~id:!next ~key ~flags ~seq ~payload ~sent_at:0.0 ()

let feed impl pkts = List.iter impl.Nf_api.process_packet pkts

let http_key client server sport =
  Flow.make ~src:client ~dst:server ~proto:Flow.Tcp ~sport ~dport:80 ()

(* Build the packets of one HTTP exchange (without the simulator). *)
let http_exchange ?(agent = "Firefox") ~client ~server ~sport ~body () =
  let key = http_key client server sport in
  let back = Flow.reverse key in
  let piece_len = 1000 in
  let rec pieces acc off =
    if off >= String.length body then List.rev acc
    else
      let n = min piece_len (String.length body - off) in
      pieces (String.sub body off n :: acc) (off + n)
  in
  let body_pieces = pieces [] 0 in
  let n = List.length body_pieces in
  [ mk_packet ~flags:[ Syn ] key;
    mk_packet ~flags:[ Syn; Ack ] back;
    mk_packet ~seq:1 ~payload:(Printf.sprintf "GET /x UA=%s" agent) key ]
  @ List.mapi
      (fun i piece ->
        let flags = if i = n - 1 then [ Packet.Ack; Packet.Fin ] else [ Packet.Ack ] in
        mk_packet ~flags ~seq:(i + 1) ~payload:piece back)
      body_pieces

(* --- IDS ------------------------------------------------------------------- *)

let test_ids_scan_detection () =
  let ids = Opennf_nfs.Ids.create ~scan_threshold:5 () in
  let impl = Opennf_nfs.Ids.impl ids in
  let scanner = ip 203 0 113 9 in
  for port = 1000 to 1004 do
    impl.Nf_api.process_packet
      (mk_packet ~flags:[ Syn ]
         (Flow.make ~src:scanner ~dst:(ip 10 0 0 5) ~sport:40000 ~dport:port ()))
  done;
  match Opennf_nfs.Ids.alert_log ids with
  | [ Opennf_nfs.Ids.Port_scan host ] ->
    Alcotest.(check string) "scanner identified" (Ipaddr.to_string scanner)
      (Ipaddr.to_string host)
  | l -> Alcotest.fail (Printf.sprintf "expected one scan alert, got %d" (List.length l))

let test_ids_scan_below_threshold_silent () =
  let ids = Opennf_nfs.Ids.create ~scan_threshold:5 () in
  let impl = Opennf_nfs.Ids.impl ids in
  for port = 1000 to 1003 do
    impl.Nf_api.process_packet
      (mk_packet ~flags:[ Syn ]
         (Flow.make ~src:(ip 1 1 1 1) ~dst:(ip 10 0 0 5) ~sport:1 ~dport:port ()))
  done;
  Alcotest.(check int) "no alert" 0 (List.length (Opennf_nfs.Ids.alert_log ids))

let test_ids_malware_detection () =
  let body, digest = Opennf_trace.Gen.malware_body 5000 in
  let ids = Opennf_nfs.Ids.create ~malware:[ digest ] () in
  let impl = Opennf_nfs.Ids.impl ids in
  feed impl (http_exchange ~client:(ip 10 0 0 1) ~server:(ip 8 8 8 8) ~sport:1 ~body ());
  Alcotest.(check bool) "malware alert" true
    (List.exists
       (function Opennf_nfs.Ids.Malware _ -> true | _ -> false)
       (Opennf_nfs.Ids.alert_log ids))

let test_ids_clean_body_silent () =
  let _, digest = Opennf_trace.Gen.malware_body 5000 in
  let ids = Opennf_nfs.Ids.create ~malware:[ digest ] () in
  let impl = Opennf_nfs.Ids.impl ids in
  feed impl
    (http_exchange ~client:(ip 10 0 0 1) ~server:(ip 8 8 8 8) ~sport:1
       ~body:(String.make 5000 'z') ());
  Alcotest.(check bool) "no malware alert" false
    (List.exists
       (function Opennf_nfs.Ids.Malware _ -> true | _ -> false)
       (Opennf_nfs.Ids.alert_log ids))

let test_ids_malware_lost_packet_missed () =
  (* The §5.1.1 motivation: drop one reply packet and the digest never
     completes — the malware goes undetected. *)
  let body, digest = Opennf_trace.Gen.malware_body 5000 in
  let ids = Opennf_nfs.Ids.create ~malware:[ digest ] () in
  let impl = Opennf_nfs.Ids.impl ids in
  let pkts = http_exchange ~client:(ip 10 0 0 1) ~server:(ip 8 8 8 8) ~sport:1 ~body () in
  let dropped_one =
    List.filteri (fun i _ -> i <> 4) pkts (* lose one body segment *)
  in
  feed impl dropped_one;
  Alcotest.(check bool) "missed" false
    (List.exists
       (function Opennf_nfs.Ids.Malware _ -> true | _ -> false)
       (Opennf_nfs.Ids.alert_log ids))

let test_ids_malware_reordered_still_detected () =
  (* Bro reassembles by sequence number, so loss-free is enough even
     without order preservation (§6's remote-processing app). *)
  let body, digest = Opennf_trace.Gen.malware_body 5000 in
  let ids = Opennf_nfs.Ids.create ~malware:[ digest ] () in
  let impl = Opennf_nfs.Ids.impl ids in
  let pkts = http_exchange ~client:(ip 10 0 0 1) ~server:(ip 8 8 8 8) ~sport:1 ~body () in
  (* Swap two body segments. *)
  let arr = Array.of_list pkts in
  let tmp = arr.(4) in
  arr.(4) <- arr.(5);
  arr.(5) <- tmp;
  feed impl (Array.to_list arr);
  Alcotest.(check bool) "detected despite reordering" true
    (List.exists
       (function Opennf_nfs.Ids.Malware _ -> true | _ -> false)
       (Opennf_nfs.Ids.alert_log ids))

let test_ids_weird_alert_on_reordered_syn () =
  let ids = Opennf_nfs.Ids.create () in
  let impl = Opennf_nfs.Ids.impl ids in
  let key = http_key (ip 10 0 0 1) (ip 8 8 8 8) 99 in
  impl.Nf_api.process_packet (mk_packet ~flags:[ Ack ] ~seq:1 ~payload:"data" key);
  impl.Nf_api.process_packet (mk_packet ~flags:[ Syn ] key);
  Alcotest.(check bool) "SYN_inside_connection" true
    (List.exists
       (function
         | Opennf_nfs.Ids.Weird { kind = "SYN_inside_connection"; _ } -> true
         | _ -> false)
       (Opennf_nfs.Ids.alert_log ids))

let test_ids_no_weird_in_order () =
  let ids = Opennf_nfs.Ids.create () in
  let impl = Opennf_nfs.Ids.impl ids in
  let key = http_key (ip 10 0 0 1) (ip 8 8 8 8) 99 in
  impl.Nf_api.process_packet (mk_packet ~flags:[ Syn ] key);
  impl.Nf_api.process_packet (mk_packet ~flags:[ Ack ] ~seq:1 ~payload:"data" key);
  Alcotest.(check int) "silent" 0 (List.length (Opennf_nfs.Ids.alert_log ids))

let test_ids_outdated_browser () =
  let ids = Opennf_nfs.Ids.create () in
  let impl = Opennf_nfs.Ids.impl ids in
  feed impl
    (http_exchange ~agent:"IE6" ~client:(ip 10 0 0 1) ~server:(ip 8 8 8 8)
       ~sport:1 ~body:"ok" ());
  Alcotest.(check bool) "alerted" true
    (List.exists
       (function
         | Opennf_nfs.Ids.Outdated_browser { agent = "IE6"; _ } -> true
         | _ -> false)
       (Opennf_nfs.Ids.alert_log ids))

let test_ids_perflow_roundtrip_preserves_detection () =
  (* Split an exchange across two instances, moving conn state by
     export/import mid-reply: the second instance completes detection. *)
  let body, digest = Opennf_trace.Gen.malware_body 5000 in
  let ids1 = Opennf_nfs.Ids.create ~malware:[ digest ] () in
  let ids2 = Opennf_nfs.Ids.create ~malware:[ digest ] () in
  let impl1 = Opennf_nfs.Ids.impl ids1 and impl2 = Opennf_nfs.Ids.impl ids2 in
  let pkts = http_exchange ~client:(ip 10 0 0 1) ~server:(ip 8 8 8 8) ~sport:1 ~body () in
  let first, second = (List.filteri (fun i _ -> i < 5) pkts, List.filteri (fun i _ -> i >= 5) pkts) in
  feed impl1 first;
  (match impl1.Nf_api.list_perflow Filter.any with
  | [ flowid ] ->
    let chunk = Option.get (impl1.Nf_api.export_perflow flowid) in
    impl1.Nf_api.delete_perflow flowid;
    impl2.Nf_api.import_perflow flowid chunk
  | _ -> Alcotest.fail "expected one flow");
  feed impl2 second;
  Alcotest.(check bool) "detection completed at the destination" true
    (List.exists
       (function Opennf_nfs.Ids.Malware _ -> true | _ -> false)
       (Opennf_nfs.Ids.alert_log ids2));
  Alcotest.(check int) "source has no leftover conn" 0
    (Opennf_nfs.Ids.conn_count ids1)

let test_ids_multiflow_merge_unions_ports () =
  let ids1 = Opennf_nfs.Ids.create ~scan_threshold:8 () in
  let ids2 = Opennf_nfs.Ids.create ~scan_threshold:8 () in
  let impl1 = Opennf_nfs.Ids.impl ids1 and impl2 = Opennf_nfs.Ids.impl ids2 in
  let scanner = ip 203 0 113 9 in
  let syn_to inst port =
    inst.Nf_api.process_packet
      (mk_packet ~flags:[ Syn ]
         (Flow.make ~src:scanner ~dst:(ip 10 0 0 5) ~sport:40000 ~dport:port ()))
  in
  for port = 1 to 5 do syn_to impl1 (1000 + port) done;
  for port = 1 to 4 do syn_to impl2 (2000 + port) done;
  Alcotest.(check int) "neither alerted yet" 0
    (List.length (Opennf_nfs.Ids.alert_log ids1 @ Opennf_nfs.Ids.alert_log ids2));
  (* Copy instance 1's counters into instance 2: union reaches 9 >= 8,
     so the very next attempt at instance 2 fires the alert. *)
  (match impl1.Nf_api.list_multiflow (Filter.of_src_host scanner) with
  | [ flowid ] ->
    impl2.Nf_api.import_multiflow flowid
      (Option.get (impl1.Nf_api.export_multiflow flowid))
  | _ -> Alcotest.fail "expected one counter");
  syn_to impl2 3000;
  Alcotest.(check bool) "merged counters detect the scan" true
    (List.exists
       (function Opennf_nfs.Ids.Port_scan _ -> true | _ -> false)
       (Opennf_nfs.Ids.alert_log ids2))

let test_ids_multiflow_selected_by_target_prefix () =
  (* The movePrefix copy (Figure 8): a local-prefix filter selects the
     counters of external hosts scanning into that prefix. *)
  let ids = Opennf_nfs.Ids.create () in
  let impl = Opennf_nfs.Ids.impl ids in
  impl.Nf_api.process_packet
    (mk_packet ~flags:[ Syn ]
       (Flow.make ~src:(ip 203 0 113 9) ~dst:(ip 10 2 0 7) ~sport:1 ~dport:80 ()));
  let selected =
    impl.Nf_api.list_multiflow
      (Filter.of_src_prefix (Ipaddr.Prefix.of_string "10.2.0.0/16"))
  in
  Alcotest.(check bool) "external scanner's counter selected" true
    (List.exists
       (fun flowid -> Filter.exact_src_host flowid = Some (ip 203 0 113 9))
       selected)

let test_ids_allflows_merge () =
  let ids1 = Opennf_nfs.Ids.create () in
  let ids2 = Opennf_nfs.Ids.create () in
  let impl1 = Opennf_nfs.Ids.impl ids1 and impl2 = Opennf_nfs.Ids.impl ids2 in
  feed impl1
    (http_exchange ~client:(ip 10 0 0 1) ~server:(ip 8 8 8 8) ~sport:1 ~body:"aaaa" ());
  feed impl2
    (http_exchange ~client:(ip 10 0 0 2) ~server:(ip 8 8 8 8) ~sport:2 ~body:"bbbb" ());
  let total_before =
    Opennf_nfs.Ids.total_bytes ids1 + Opennf_nfs.Ids.total_bytes ids2
  in
  impl2.Nf_api.import_allflows (impl1.Nf_api.export_allflows ());
  Alcotest.(check int) "byte counters summed" total_before
    (Opennf_nfs.Ids.total_bytes ids2)

(* --- PRADS ------------------------------------------------------------------ *)

let test_prads_assets_and_services () =
  let prads = Opennf_nfs.Prads.create () in
  let impl = Opennf_nfs.Prads.impl prads in
  let key = http_key (ip 10 0 0 1) (ip 8 8 8 8) 5555 in
  impl.Nf_api.process_packet (mk_packet ~flags:[ Syn ] key);
  impl.Nf_api.process_packet (mk_packet ~flags:[ Syn; Ack ] (Flow.reverse key));
  Alcotest.(check int) "two assets" 2 (Opennf_nfs.Prads.asset_count prads);
  Alcotest.(check (list (pair int string))) "http service on the server"
    [ (80, "http") ]
    (Opennf_nfs.Prads.services_of prads (ip 8 8 8 8))

let test_prads_conn_roundtrip () =
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let impl1 = Opennf_nfs.Prads.impl prads1 and impl2 = Opennf_nfs.Prads.impl prads2 in
  let key = http_key (ip 10 0 0 1) (ip 8 8 8 8) 7777 in
  impl1.Nf_api.process_packet (mk_packet ~flags:[ Syn ] key);
  impl1.Nf_api.process_packet (mk_packet ~flags:[ Ack ] key);
  (match impl1.Nf_api.list_perflow Filter.any with
  | [ flowid ] ->
    impl2.Nf_api.import_perflow flowid
      (Option.get (impl1.Nf_api.export_perflow flowid))
  | _ -> Alcotest.fail "one flow expected");
  Alcotest.(check int) "imported" 1 (Opennf_nfs.Prads.connection_count prads2)

let test_prads_asset_merge () =
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let impl1 = Opennf_nfs.Prads.impl prads1 and impl2 = Opennf_nfs.Prads.impl prads2 in
  let server = ip 8 8 8 8 in
  (* Instance 1 sees the server speak http, instance 2 sees ssh. *)
  impl1.Nf_api.process_packet
    (mk_packet ~flags:[ Syn; Ack ]
       (Flow.make ~src:server ~dst:(ip 10 0 0 1) ~sport:80 ~dport:5000 ()));
  impl2.Nf_api.process_packet
    (mk_packet ~flags:[ Syn; Ack ]
       (Flow.make ~src:server ~dst:(ip 10 0 0 2) ~sport:22 ~dport:5001 ()));
  (match impl1.Nf_api.list_multiflow (Filter.of_src_host server) with
  | flowid :: _ ->
    impl2.Nf_api.import_multiflow flowid
      (Option.get (impl1.Nf_api.export_multiflow flowid))
  | [] -> Alcotest.fail "no asset");
  Alcotest.(check (list (pair int string))) "services unioned"
    [ (22, "ssh"); (80, "http") ]
    (Opennf_nfs.Prads.services_of prads2 server)

let test_prads_stats_merge () =
  let prads1 = Opennf_nfs.Prads.create () in
  let prads2 = Opennf_nfs.Prads.create () in
  let impl1 = Opennf_nfs.Prads.impl prads1 and impl2 = Opennf_nfs.Prads.impl prads2 in
  let key = http_key (ip 10 0 0 1) (ip 8 8 8 8) 1 in
  impl1.Nf_api.process_packet (mk_packet ~flags:[ Syn ] key);
  impl2.Nf_api.process_packet (mk_packet ~flags:[ Syn ] (Flow.reverse key));
  impl2.Nf_api.import_allflows (impl1.Nf_api.export_allflows ());
  let pkts, _, flows = Opennf_nfs.Prads.stats prads2 in
  Alcotest.(check int) "packets summed" 2 pkts;
  Alcotest.(check int) "flows summed" 2 flows

(* A fixed packet sequence over new and existing flows, both directions,
   extreme addresses and ports, and a server-port ACK. The exported
   bytes were recorded from the field-by-field accessor implementation;
   reading and writing rows in place must not change one byte. *)
let prads_golden_packets () =
  let pkt ~id ?(flags = []) ?(payload = "") ~at key =
    Packet.create ~id ~key ~flags ~payload ~sent_at:at ()
  in
  let web = http_key (ip 10 0 0 1) (ip 8 8 8 8) 5555 in
  let ssh =
    Flow.make ~src:(ip 192 168 1 7) ~dst:(ip 172 16 0 9) ~sport:40000
      ~dport:22 ()
  in
  let top =
    Flow.make ~src:(ip 255 255 255 255) ~dst:(ip 0 0 0 0) ~proto:Flow.Udp
      ~sport:65535 ~dport:0 ()
  in
  let ping =
    Flow.make ~src:(ip 128 0 0 1) ~dst:(ip 10 0 0 1) ~proto:Flow.Icmp
      ~sport:0 ~dport:0 ()
  in
  [
    pkt ~id:1 ~flags:[ Syn ] ~at:0.001 web;
    pkt ~id:2 ~flags:[ Syn; Ack ] ~at:0.002 (Flow.reverse web);
    pkt ~id:3 ~flags:[ Ack ] ~payload:"GET / HTTP/1.1" ~at:0.003 web;
    pkt ~id:4 ~flags:[ Syn; Ack ] ~at:0.004 (Flow.reverse ssh);
    pkt ~id:5 ~payload:"x" ~at:0.005 top;
    pkt ~id:6 ~payload:"yy" ~at:0.006 (Flow.reverse top);
    pkt ~id:7 ~at:0.007 ping;
    pkt ~id:8 ~flags:[ Ack ] ~payload:"SSH-2.0" ~at:0.0075 ssh;
    pkt ~id:9 ~flags:[ Ack ] ~payload:"200 OK" ~at:0.009 (Flow.reverse web);
    pkt ~id:10 ~at:0.008 (Flow.reverse ping);
  ]

let test_prads_golden_bytes () =
  let prads = Opennf_nfs.Prads.create () in
  let impl = Opennf_nfs.Prads.impl prads in
  feed impl (prads_golden_packets ());
  let digest chunks =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            (List.map (fun (c : Chunk.t) -> c.kind ^ ":" ^ c.data) chunks)))
  in
  let exports export list =
    List.map (fun flowid -> Option.get (export flowid)) (list Filter.any)
  in
  let perflow = exports impl.Nf_api.export_perflow impl.Nf_api.list_perflow in
  let multiflow =
    exports impl.Nf_api.export_multiflow impl.Nf_api.list_multiflow
  in
  Alcotest.(check int) "connections" 4 (List.length perflow);
  Alcotest.(check int) "assets" 7 (List.length multiflow);
  Alcotest.(check string) "export_perflow bytes"
    "7f776e7177e41c531d6ef9be04d08489" (digest perflow);
  Alcotest.(check string) "export_multiflow bytes"
    "6474a7ac590cd9fa4e13d41c01f040a0" (digest multiflow);
  Alcotest.(check string) "export_allflows bytes"
    "7e220201bdec5fcdfe73519e434fad3d"
    (digest (impl.Nf_api.export_allflows ()))

(* A packet of a known flow updates its row and two asset records and
   allocates no more than the parent implementation measured (4.0
   minor words); inserting a key already present allocates nothing. *)
let test_prads_alloc_budget () =
  let prads = Opennf_nfs.Prads.create () in
  let impl = Opennf_nfs.Prads.impl prads in
  feed impl (prads_golden_packets ());
  let p =
    Packet.create ~id:99 ~key:(http_key (ip 10 0 0 1) (ip 8 8 8 8) 5555)
      ~flags:[ Ack ] ~payload:"more" ~sent_at:0.01 ()
  in
  let per_pkt =
    Helpers.minor_words_per ~iters:100_000 (fun () ->
        impl.Nf_api.process_packet p)
  in
  Alcotest.(check bool)
    (Printf.sprintf "existing-flow packet allocates 0 words (got %.3f)"
       per_pkt)
    true (per_pkt < 0.01);
  let store = Store.Perflow_arena.create ~payload:32 () in
  let k = Flow.reverse (http_key (ip 10 0 0 1) (ip 8 8 8 8) 5555) in
  ignore (Store.Perflow_arena.insert store k);
  let per_insert =
    Helpers.minor_words_per ~iters:100_000 (fun () ->
        ignore (Store.Perflow_arena.insert store k))
  in
  Alcotest.(check bool)
    (Printf.sprintf "insert of a present key allocates 0 words (got %.3f)"
       per_insert)
    true (per_insert < 0.01)

(* --- proxy ------------------------------------------------------------------- *)

let proxy_key client sport =
  Flow.make ~src:client ~dst:(ip 10 0 0 100) ~proto:Flow.Tcp ~sport ~dport:3128 ()

let run_transfer impl key url =
  impl.Nf_api.process_packet (mk_packet ~payload:("GET " ^ url) key);
  let conts =
    (Opennf_nfs.Proxy.object_size url + 65535) / 65536
  in
  for i = 1 to conts do
    impl.Nf_api.process_packet (mk_packet ~seq:i ~payload:"CONT" key)
  done

let test_proxy_hit_miss () =
  let proxy = Opennf_nfs.Proxy.create () in
  let impl = Opennf_nfs.Proxy.impl proxy in
  run_transfer impl (proxy_key (ip 10 0 0 1) 1) "/a";
  Alcotest.(check int) "first is a miss" 0 (Opennf_nfs.Proxy.hits proxy);
  Alcotest.(check int) "miss count" 1 (Opennf_nfs.Proxy.misses proxy);
  run_transfer impl (proxy_key (ip 10 0 0 1) 2) "/a";
  Alcotest.(check int) "second is a hit" 1 (Opennf_nfs.Proxy.hits proxy);
  Alcotest.(check int) "one object cached" 1 (Opennf_nfs.Proxy.cache_size proxy)

let test_proxy_crash_on_missing_entry () =
  let proxy1 = Opennf_nfs.Proxy.create () in
  let proxy2 = Opennf_nfs.Proxy.create () in
  let impl1 = Opennf_nfs.Proxy.impl proxy1 and impl2 = Opennf_nfs.Proxy.impl proxy2 in
  let key = proxy_key (ip 10 0 0 1) 1 in
  (* Start a transfer at proxy1, move only the per-flow state. *)
  impl1.Nf_api.process_packet (mk_packet ~payload:"GET /big" key);
  impl1.Nf_api.process_packet (mk_packet ~seq:1 ~payload:"CONT" key);
  (match impl1.Nf_api.list_perflow Filter.any with
  | [ flowid ] ->
    impl2.Nf_api.import_perflow flowid
      (Option.get (impl1.Nf_api.export_perflow flowid))
  | _ -> Alcotest.fail "one conn expected");
  Alcotest.(check int) "transfer in progress at proxy2" 1
    (Opennf_nfs.Proxy.in_progress proxy2);
  impl2.Nf_api.process_packet (mk_packet ~seq:2 ~payload:"CONT" key);
  Alcotest.(check bool) "crashed" true (Opennf_nfs.Proxy.crashed proxy2)

let test_proxy_no_crash_with_entry_copied () =
  let proxy1 = Opennf_nfs.Proxy.create () in
  let proxy2 = Opennf_nfs.Proxy.create () in
  let impl1 = Opennf_nfs.Proxy.impl proxy1 and impl2 = Opennf_nfs.Proxy.impl proxy2 in
  let client = ip 10 0 0 1 in
  let key = proxy_key client 1 in
  impl1.Nf_api.process_packet (mk_packet ~payload:"GET /big" key);
  impl1.Nf_api.process_packet (mk_packet ~seq:1 ~payload:"CONT" key);
  (* Copy the multi-flow state relevant to the client, then the conn. *)
  List.iter
    (fun flowid ->
      impl2.Nf_api.import_multiflow flowid
        (Option.get (impl1.Nf_api.export_multiflow flowid)))
    (impl1.Nf_api.list_multiflow (Filter.of_src_host client));
  (match impl1.Nf_api.list_perflow Filter.any with
  | [ flowid ] ->
    impl2.Nf_api.import_perflow flowid
      (Option.get (impl1.Nf_api.export_perflow flowid))
  | _ -> Alcotest.fail "one conn expected");
  impl2.Nf_api.process_packet (mk_packet ~seq:2 ~payload:"CONT" key);
  Alcotest.(check bool) "no crash" false (Opennf_nfs.Proxy.crashed proxy2)

let test_proxy_entry_relevance () =
  let proxy = Opennf_nfs.Proxy.create () in
  let impl = Opennf_nfs.Proxy.impl proxy in
  let c1 = ip 10 0 0 1 and c2 = ip 10 0 0 2 in
  (* c1 finishes a transfer of /a; c2 is mid-transfer of /b. *)
  run_transfer impl (proxy_key c1 1) "/a";
  impl.Nf_api.process_packet (mk_packet ~payload:"GET /b" (proxy_key c2 2));
  let for_c2 = impl.Nf_api.list_multiflow (Filter.of_src_host c2) in
  Alcotest.(check int) "only the active entry" 1 (List.length for_c2);
  let all = impl.Nf_api.list_multiflow Filter.any in
  Alcotest.(check int) "whole cache" 2 (List.length all);
  (* The URL-extended flowid selects exactly one entry. *)
  Alcotest.(check int) "by url" 1
    (List.length (impl.Nf_api.list_multiflow (Filter.of_app "/a")))

let test_proxy_entry_chunk_carries_content () =
  let proxy = Opennf_nfs.Proxy.create () in
  let impl = Opennf_nfs.Proxy.impl proxy in
  run_transfer impl (proxy_key (ip 10 0 0 1) 1) "/payload-size";
  match impl.Nf_api.list_multiflow Filter.any with
  | [ flowid ] ->
    let chunk = Option.get (impl.Nf_api.export_multiflow flowid) in
    Alcotest.(check bool) "chunk about as big as the object" true
      (Chunk.size chunk >= Opennf_nfs.Proxy.object_size "/payload-size")
  | _ -> Alcotest.fail "one entry expected"

(* --- NAT ---------------------------------------------------------------------- *)

let test_nat_connection_lifecycle () =
  let nat = Opennf_nfs.Nat.create () in
  let impl = Opennf_nfs.Nat.impl nat in
  let key = http_key (ip 10 0 0 1) (ip 8 8 8 8) 1234 in
  impl.Nf_api.process_packet (mk_packet ~flags:[ Syn ] key);
  Alcotest.(check bool) "new" true (Opennf_nfs.Nat.state_of nat key = Some Opennf_nfs.Nat.New);
  impl.Nf_api.process_packet (mk_packet ~flags:[ Ack ] key);
  Alcotest.(check bool) "established" true
    (Opennf_nfs.Nat.state_of nat key = Some Opennf_nfs.Nat.Established);
  impl.Nf_api.process_packet (mk_packet ~flags:[ Fin; Ack ] key);
  impl.Nf_api.process_packet (mk_packet ~flags:[ Ack ] key);
  Alcotest.(check bool) "closed" true
    (Opennf_nfs.Nat.state_of nat key = Some Opennf_nfs.Nat.Closed)

let test_nat_rejects_unknown_non_syn () =
  let nat = Opennf_nfs.Nat.create () in
  let impl = Opennf_nfs.Nat.impl nat in
  impl.Nf_api.process_packet
    (mk_packet ~flags:[ Ack ] (http_key (ip 10 0 0 1) (ip 8 8 8 8) 1));
  Alcotest.(check int) "invalid" 1 (Opennf_nfs.Nat.invalid_count nat);
  Alcotest.(check int) "no entry" 0 (Opennf_nfs.Nat.entry_count nat)

let test_nat_port_allocation_distinct () =
  let nat = Opennf_nfs.Nat.create ~port_base:30000 () in
  let impl = Opennf_nfs.Nat.impl nat in
  let k1 = http_key (ip 10 0 0 1) (ip 8 8 8 8) 1 in
  let k2 = http_key (ip 10 0 0 2) (ip 8 8 8 8) 2 in
  impl.Nf_api.process_packet (mk_packet ~flags:[ Syn ] k1);
  impl.Nf_api.process_packet (mk_packet ~flags:[ Syn ] k2);
  Alcotest.(check bool) "ports differ" true
    (Opennf_nfs.Nat.translation_of nat k1 <> Opennf_nfs.Nat.translation_of nat k2)

let test_nat_roundtrip_preserves_translation () =
  let nat1 = Opennf_nfs.Nat.create () in
  let nat2 = Opennf_nfs.Nat.create () in
  let impl1 = Opennf_nfs.Nat.impl nat1 and impl2 = Opennf_nfs.Nat.impl nat2 in
  let key = http_key (ip 10 0 0 1) (ip 8 8 8 8) 1234 in
  impl1.Nf_api.process_packet (mk_packet ~flags:[ Syn ] key);
  impl1.Nf_api.process_packet (mk_packet ~flags:[ Ack ] key);
  let port = Opennf_nfs.Nat.translation_of nat1 key in
  (match impl1.Nf_api.list_perflow Filter.any with
  | [ flowid ] ->
    impl2.Nf_api.import_perflow flowid
      (Option.get (impl1.Nf_api.export_perflow flowid))
  | _ -> Alcotest.fail "one entry");
  Alcotest.(check bool) "translation preserved" true
    (Opennf_nfs.Nat.translation_of nat2 key = port);
  (* Mid-flow packets are valid at the destination after the move. *)
  impl2.Nf_api.process_packet (mk_packet ~flags:[ Ack ] key);
  Alcotest.(check int) "no invalids" 0 (Opennf_nfs.Nat.invalid_count nat2)

let test_nat_has_no_multiflow_state () =
  let nat = Opennf_nfs.Nat.create () in
  let impl = Opennf_nfs.Nat.impl nat in
  Alcotest.(check int) "no multi-flow" 0
    (List.length (impl.Nf_api.list_multiflow Filter.any));
  Alcotest.(check int) "no all-flows" 0
    (List.length (impl.Nf_api.export_allflows ()))

(* --- RE codec ------------------------------------------------------------------- *)

let test_re_encode_decode () =
  let enc = Opennf_nfs.Re_codec.Encoder.create () in
  let first = Opennf_nfs.Re_codec.Encoder.encode_payload enc "hello world" in
  Alcotest.(check string) "first pass-through" "hello world" first;
  let second = Opennf_nfs.Re_codec.Encoder.encode_payload enc "hello world" in
  Alcotest.(check bool) "second is a reference" true (second <> "hello world");
  let dec = Opennf_nfs.Re_codec.Decoder.create () in
  let dimpl = Opennf_nfs.Re_codec.Decoder.impl dec in
  let key = http_key (ip 1 1 1 1) (ip 2 2 2 2) 1 in
  dimpl.Nf_api.process_packet (mk_packet ~payload:first key);
  dimpl.Nf_api.process_packet (mk_packet ~seq:1 ~payload:second key);
  Alcotest.(check int) "decoded" 1 (Opennf_nfs.Re_codec.Decoder.decoded_count dec);
  Alcotest.(check int) "no desync" 0 (Opennf_nfs.Re_codec.Decoder.desync_count dec)

let test_re_desync_on_reorder () =
  let enc = Opennf_nfs.Re_codec.Encoder.create () in
  let first = Opennf_nfs.Re_codec.Encoder.encode_payload enc "hello world" in
  let second = Opennf_nfs.Re_codec.Encoder.encode_payload enc "hello world" in
  let dec = Opennf_nfs.Re_codec.Decoder.create () in
  let dimpl = Opennf_nfs.Re_codec.Decoder.impl dec in
  let key = http_key (ip 1 1 1 1) (ip 2 2 2 2) 1 in
  (* Reference arrives before the data packet it was encoded against. *)
  dimpl.Nf_api.process_packet (mk_packet ~seq:1 ~payload:second key);
  dimpl.Nf_api.process_packet (mk_packet ~payload:first key);
  Alcotest.(check int) "silently dropped" 1
    (Opennf_nfs.Re_codec.Decoder.desync_count dec)

let test_re_store_transfer_heals () =
  let enc = Opennf_nfs.Re_codec.Encoder.create () in
  ignore (Opennf_nfs.Re_codec.Encoder.encode_payload enc "payload-one");
  ignore (Opennf_nfs.Re_codec.Encoder.encode_payload enc "payload-two");
  let eimpl = Opennf_nfs.Re_codec.Encoder.impl enc in
  let dec = Opennf_nfs.Re_codec.Decoder.create () in
  let dimpl = Opennf_nfs.Re_codec.Decoder.impl dec in
  dimpl.Nf_api.import_allflows (eimpl.Nf_api.export_allflows ());
  Alcotest.(check int) "store copied" 2
    (Opennf_nfs.Re_codec.Decoder.store_size dec);
  (* A reference now decodes even though the decoder never saw the data. *)
  let re = Opennf_nfs.Re_codec.Encoder.encode_payload enc "payload-one" in
  let key = http_key (ip 1 1 1 1) (ip 2 2 2 2) 1 in
  dimpl.Nf_api.process_packet (mk_packet ~payload:re key);
  Alcotest.(check int) "decoded from copied store" 1
    (Opennf_nfs.Re_codec.Decoder.decoded_count dec)

(* --- dummy ----------------------------------------------------------------------- *)

let test_dummy_seed_and_export () =
  let d = Opennf_nfs.Dummy.create ~chunk_bytes:100 () in
  let impl = Opennf_nfs.Dummy.impl d in
  Opennf_nfs.Dummy.seed_flows d
    [ http_key (ip 1 1 1 1) (ip 2 2 2 2) 1; http_key (ip 1 1 1 2) (ip 2 2 2 2) 2 ];
  Alcotest.(check int) "seeded" 2 (Opennf_nfs.Dummy.flow_count d);
  let flowids = impl.Nf_api.list_perflow Filter.any in
  Alcotest.(check int) "listed" 2 (List.length flowids);
  List.iter
    (fun flowid ->
      match impl.Nf_api.export_perflow flowid with
      | Some c -> Alcotest.(check int) "chunk size" 100 (String.length c.Chunk.data)
      | None -> Alcotest.fail "export failed")
    flowids

(* Fixed keys (one reply-direction, one at the edges of every field)
   and chunk sizes on both sides of the 100-byte template: the exported
   bytes and the listed flowids must stay those recorded when the dummy
   kept a boxed store and drew each byte from [Rng]. *)
let dummy_golden_keys =
  [
    Helpers.dummy_key 0;
    Helpers.dummy_key 1;
    Helpers.dummy_key 1999;
    Flow.reverse (Helpers.dummy_key 7);
    Flow.make ~src:(ip 255 255 255 255) ~dst:(ip 0 0 0 1) ~proto:Flow.Icmp
      ~sport:65535 ~dport:0 ();
  ]

let test_dummy_golden_bytes () =
  let render chunk_bytes =
    let d = Opennf_nfs.Dummy.create ~chunk_bytes () in
    let impl = Opennf_nfs.Dummy.impl d in
    Opennf_nfs.Dummy.seed_flows d dummy_golden_keys;
    let listed f = List.map Filter.to_string (impl.Nf_api.list_perflow f) in
    let export k =
      match impl.Nf_api.export_perflow (Filter.of_key k) with
      | Some c -> c.Chunk.kind ^ ":" ^ c.Chunk.data
      | None -> Alcotest.failf "no chunk for %s" (Flow.to_string k)
    in
    String.concat "|"
      ((listed Filter.any
       @ listed (Filter.of_key (List.nth dummy_golden_keys 3))
       @ listed (Filter.make ~proto:Flow.Icmp ()))
      @ List.map export dummy_golden_keys)
  in
  Alcotest.(check string) "export and list bytes"
    "dd998865c311332ddf3c95770e519021"
    (Digest.to_hex
       (Digest.string (String.concat "#" (List.map render [ 1; 37; 100; 202; 1000 ]))))

let rand_key_gen =
  QCheck.Gen.(
    map
      (fun ((src, dst), (proto, sport, dport)) ->
        Flow.make ~src:(Ipaddr.of_int src) ~dst:(Ipaddr.of_int dst)
          ~proto:[| Flow.Tcp; Flow.Udp; Flow.Icmp |].(proto)
          ~sport ~dport ())
      (pair
         (pair (int_bound 0xFFFF_FFFF) (int_bound 0xFFFF_FFFF))
         (triple (int_bound 2) (int_bound 0xFFFF) (int_bound 0xFFFF))))

(* The one-loop generator against the seed's one [Rng.int] per byte
   ({!Oracle.Dummy_chunk}), over random keys and chunk sizes. *)
let dummy_chunk_equiv =
  QCheck.Test.make ~name:"dummy: chunk bytes == per-byte Rng oracle (random)"
    ~count:300
    (QCheck.make
       ~print:(fun (k, n) -> Printf.sprintf "%s, %d bytes" (Flow.to_string k) n)
       QCheck.Gen.(pair rand_key_gen (int_bound 600)))
    (fun (key, chunk_bytes) ->
      let d = Opennf_nfs.Dummy.create ~chunk_bytes () in
      Opennf_nfs.Dummy.seed_flows d [ key ];
      match (Opennf_nfs.Dummy.impl d).Nf_api.export_perflow (Filter.of_key key) with
      | Some c -> c.Chunk.data = Oracle.Dummy_chunk.chunk ~chunk_bytes key
      | None -> QCheck.Test.fail_report "seeded flow not exported")

(* A small universe of hosts and ports, used in both directions, so
   processed, imported and deleted flows collide and reverse keys meet
   their canonical rows. *)
let dummy_key_of a b =
  let k =
    Flow.make
      ~src:(ip 10 0 (a land 3) (b land 7))
      ~dst:(ip 10 0 (b land 3) (a land 7))
      ~proto:(if a land 1 = 0 then Flow.Tcp else Flow.Udp)
      ~sport:(1000 + (a land 3))
      ~dport:(1000 + (b land 3))
      ()
  in
  if (a + b) land 4 = 0 then k else Flow.reverse k

let dummy_filter_of c a b =
  match c mod 7 with
  | 0 -> Filter.any
  | 1 -> Filter.of_src_host (ip 10 0 (a land 3) (b land 7))
  | 2 -> Filter.of_dst_host (ip 10 0 (b land 3) (a land 7))
  | 3 -> Filter.of_src_prefix (Ipaddr.Prefix.make (ip 10 0 (a land 3) 0) 24)
  | 4 -> Filter.make ~proto:(if b land 1 = 0 then Flow.Tcp else Flow.Udp) ()
  | 5 -> Filter.make ~dst_port:(1000 + (b land 3)) ()
  | _ -> Filter.of_key (dummy_key_of a b)

(* The dummy's listing against the boxed store it used to keep, under
   random processing, imports and deletes: same flowids, same order,
   same count. *)
let dummy_list_equiv =
  QCheck.Test.make ~name:"dummy: list order == boxed store (random)" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 100) (triple small_nat small_nat small_nat))
    (fun ops ->
      let d = Opennf_nfs.Dummy.create () in
      let impl = Opennf_nfs.Dummy.impl d in
      let model = Store.Perflow.create () in
      List.for_all
        (fun (c, a, b) ->
          let k = dummy_key_of a b in
          (match c mod 4 with
          | 0 ->
            impl.Nf_api.process_packet (mk_packet k);
            Store.Perflow.set model k ()
          | 1 ->
            impl.Nf_api.import_perflow (Filter.of_key k) (Chunk.v ~kind:"dummy" "");
            Store.Perflow.set model k ()
          | 2 ->
            impl.Nf_api.delete_perflow (Filter.of_key k);
            Store.Perflow.remove model k
          | _ -> ());
          let f = dummy_filter_of c b a in
          let got = List.map Filter.to_string (impl.Nf_api.list_perflow f) in
          let want =
            List.map
              (fun (k, ()) -> Filter.to_string (Filter.of_key k))
              (Store.Perflow.matching model f)
          in
          if got <> want then
            QCheck.Test.fail_reportf "list %s: got [%s], want [%s]"
              (Filter.to_string f) (String.concat "; " got)
              (String.concat "; " want);
          Opennf_nfs.Dummy.flow_count d = Store.Perflow.size model)
        ops)

let suite =
  [
    Alcotest.test_case "ids: scan detection" `Quick test_ids_scan_detection;
    Alcotest.test_case "ids: below threshold silent" `Quick
      test_ids_scan_below_threshold_silent;
    Alcotest.test_case "ids: malware detection" `Quick test_ids_malware_detection;
    Alcotest.test_case "ids: clean body silent" `Quick test_ids_clean_body_silent;
    Alcotest.test_case "ids: lost packet misses malware" `Quick
      test_ids_malware_lost_packet_missed;
    Alcotest.test_case "ids: reassembly beats reordering" `Quick
      test_ids_malware_reordered_still_detected;
    Alcotest.test_case "ids: weird alert on reordered SYN" `Quick
      test_ids_weird_alert_on_reordered_syn;
    Alcotest.test_case "ids: in-order is silent" `Quick test_ids_no_weird_in_order;
    Alcotest.test_case "ids: outdated browser" `Quick test_ids_outdated_browser;
    Alcotest.test_case "ids: per-flow roundtrip mid-detection" `Quick
      test_ids_perflow_roundtrip_preserves_detection;
    Alcotest.test_case "ids: multi-flow merge unions" `Quick
      test_ids_multiflow_merge_unions_ports;
    Alcotest.test_case "ids: counters selected by target prefix" `Quick
      test_ids_multiflow_selected_by_target_prefix;
    Alcotest.test_case "ids: all-flows merge" `Quick test_ids_allflows_merge;
    Alcotest.test_case "prads: assets & services" `Quick
      test_prads_assets_and_services;
    Alcotest.test_case "prads: conn roundtrip" `Quick test_prads_conn_roundtrip;
    Alcotest.test_case "prads: asset merge" `Quick test_prads_asset_merge;
    Alcotest.test_case "prads: stats merge" `Quick test_prads_stats_merge;
    Alcotest.test_case "prads: export bytes are golden" `Quick
      test_prads_golden_bytes;
    Alcotest.test_case "alloc budget: prads existing-flow packet" `Quick
      test_prads_alloc_budget;
    Alcotest.test_case "proxy: hit/miss" `Quick test_proxy_hit_miss;
    Alcotest.test_case "proxy: crash without entry" `Quick
      test_proxy_crash_on_missing_entry;
    Alcotest.test_case "proxy: copied entry avoids crash" `Quick
      test_proxy_no_crash_with_entry_copied;
    Alcotest.test_case "proxy: entry relevance" `Quick test_proxy_entry_relevance;
    Alcotest.test_case "proxy: chunks carry content" `Quick
      test_proxy_entry_chunk_carries_content;
    Alcotest.test_case "nat: lifecycle" `Quick test_nat_connection_lifecycle;
    Alcotest.test_case "nat: rejects unknown non-SYN" `Quick
      test_nat_rejects_unknown_non_syn;
    Alcotest.test_case "nat: distinct ports" `Quick test_nat_port_allocation_distinct;
    Alcotest.test_case "nat: roundtrip keeps translation" `Quick
      test_nat_roundtrip_preserves_translation;
    Alcotest.test_case "nat: per-flow only" `Quick test_nat_has_no_multiflow_state;
    Alcotest.test_case "re: encode/decode" `Quick test_re_encode_decode;
    Alcotest.test_case "re: desync on reorder" `Quick test_re_desync_on_reorder;
    Alcotest.test_case "re: store transfer heals" `Quick test_re_store_transfer_heals;
    Alcotest.test_case "dummy: seed & export" `Quick test_dummy_seed_and_export;
    Alcotest.test_case "dummy: export bytes are golden" `Quick
      test_dummy_golden_bytes;
    QCheck_alcotest.to_alcotest dummy_chunk_equiv;
    QCheck_alcotest.to_alcotest dummy_list_equiv;
  ]
