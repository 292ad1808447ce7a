(* Tests for the network substrate: addresses, flows, filters, flow
   tables, channels and the SDN switch. *)

module Engine = Opennf_sim.Engine
open Opennf_net

let ip = Ipaddr.v

(* --- ipaddr -------------------------------------------------------------- *)

let test_ip_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "roundtrip" s
        (Ipaddr.to_string (Ipaddr.of_string s)))
    [ "0.0.0.0"; "10.1.2.3"; "255.255.255.255"; "192.168.0.1" ]

let test_ip_rejects_bad () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try
           ignore (Ipaddr.of_string s);
           false
         with Invalid_argument _ -> true))
    [ "10.0.0"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d"; "" ]

let test_prefix_membership () =
  let p = Ipaddr.Prefix.of_string "10.1.0.0/16" in
  Alcotest.(check bool) "inside" true (Ipaddr.Prefix.mem (ip 10 1 200 7) p);
  Alcotest.(check bool) "outside" false (Ipaddr.Prefix.mem (ip 10 2 0 1) p);
  let all = Ipaddr.Prefix.of_string "0.0.0.0/0" in
  Alcotest.(check bool) "/0 matches all" true (Ipaddr.Prefix.mem (ip 9 9 9 9) all)

let test_prefix_subset () =
  let p16 = Ipaddr.Prefix.of_string "10.1.0.0/16" in
  let p24 = Ipaddr.Prefix.of_string "10.1.5.0/24" in
  Alcotest.(check bool) "/24 in /16" true (Ipaddr.Prefix.subset p24 p16);
  Alcotest.(check bool) "/16 not in /24" false (Ipaddr.Prefix.subset p16 p24);
  Alcotest.(check bool) "self" true (Ipaddr.Prefix.subset p16 p16)

let test_prefix_normalizes_host_bits () =
  let p = Ipaddr.Prefix.make (ip 10 1 2 3) 16 in
  Alcotest.(check string) "zeroed" "10.1.0.0/16" (Ipaddr.Prefix.to_string p)

(* --- flow ----------------------------------------------------------------- *)

let key = Flow.make ~src:(ip 10 0 0 1) ~dst:(ip 172 16 0 1) ~sport:1234 ~dport:80 ()

let test_flow_canonical_involution () =
  Alcotest.(check bool) "canonical(k) = canonical(rev k)" true
    (Flow.equal (Flow.canonical key) (Flow.canonical (Flow.reverse key)))

let test_flow_reverse_involution () =
  Alcotest.(check bool) "rev rev = id" true
    (Flow.equal key (Flow.reverse (Flow.reverse key)))

let flow_arbitrary =
  QCheck.make
    ~print:(fun k -> Flow.to_string k)
    QCheck.Gen.(
      let ip_gen = map Ipaddr.of_int (int_bound 0xFFFFFF) in
      let port = int_bound 65535 in
      map
        (fun (src, dst, sport, dport) -> Flow.make ~src ~dst ~sport ~dport ())
        (quad ip_gen ip_gen port port))

let flow_canonical_prop =
  QCheck.Test.make ~name:"flow canonical direction-independent" ~count:500
    flow_arbitrary (fun k ->
      Flow.equal (Flow.canonical k) (Flow.canonical (Flow.reverse k))
      && Flow.is_canonical k = (Flow.canonical k == k))

let flow_hash_consistent_prop =
  QCheck.Test.make ~name:"flow equal implies same hash" ~count:500
    flow_arbitrary (fun k -> Flow.hash k = Flow.hash { k with Flow.src_ip = k.Flow.src_ip })

(* --- filter ---------------------------------------------------------------- *)

let test_filter_any_matches () =
  Alcotest.(check bool) "any" true (Filter.matches_key Filter.any key)

let test_filter_directed_vs_flow () =
  let f = Filter.of_src_host (ip 10 0 0 1) in
  Alcotest.(check bool) "directed forward" true (Filter.matches_key f key);
  Alcotest.(check bool) "directed reverse" false
    (Filter.matches_key f (Flow.reverse key));
  Alcotest.(check bool) "flow-level both" true
    (Filter.matches_flow f (Flow.reverse key))

let test_filter_ports_proto () =
  let f = Filter.make ~proto:Flow.Tcp ~dst_port:80 () in
  Alcotest.(check bool) "matches" true (Filter.matches_key f key);
  let f2 = Filter.make ~dst_port:443 () in
  Alcotest.(check bool) "port mismatch" false (Filter.matches_key f2 key)

let test_filter_tcp_flag () =
  let f = Filter.make ~proto:Flow.Tcp ~tcp_flag:Packet.Syn () in
  let syn = Packet.create ~id:1 ~key ~flags:[ Syn ] ~sent_at:0.0 () in
  let ack = Packet.create ~id:2 ~key ~flags:[ Ack ] ~sent_at:0.0 () in
  Alcotest.(check bool) "syn matches" true (Filter.matches_packet f syn);
  Alcotest.(check bool) "ack does not" false (Filter.matches_packet f ack)

let test_filter_mirror () =
  let f = Filter.make ~src:(Ipaddr.Prefix.of_string "10.0.0.0/8") ~dst_port:80 () in
  let m = Filter.mirror f in
  Alcotest.(check bool) "mirrored dst" true
    (m.Filter.dst = Some (Ipaddr.Prefix.of_string "10.0.0.0/8"));
  Alcotest.(check bool) "mirrored sport" true (m.Filter.src_port = Some 80);
  Alcotest.(check bool) "double mirror" true (Filter.equal f (Filter.mirror m))

let test_filter_symmetric () =
  Alcotest.(check bool) "any symmetric" true (Filter.is_symmetric Filter.any);
  Alcotest.(check bool) "src filter not" false
    (Filter.is_symmetric (Filter.of_src_host (ip 1 2 3 4)))

let test_accepts_flowid () =
  let prefix_filter = Filter.of_src_prefix (Ipaddr.Prefix.of_string "10.0.0.0/8") in
  let flowid = Filter.of_key key in
  Alcotest.(check bool) "per-flow flowid accepted" true
    (Filter.accepts_flowid prefix_filter flowid);
  let host_flowid = Filter.of_src_host (ip 10 0 0 1) in
  Alcotest.(check bool) "host flowid accepted" true
    (Filter.accepts_flowid prefix_filter host_flowid);
  let other = Filter.of_src_host (ip 203 0 113 1) in
  (* Fields absent from the flowid are ignored: a dst-less flowid is
     accepted by mirror matching only through absent fields, so a
     completely foreign host is still rejected on the direct side but
     accepted via the mirror's wildcard — the filter cannot rule it out.
     Per-flow flowids (full 5-tuples) are exact. *)
  let full_other =
    Filter.of_key
      (Flow.make ~src:(ip 203 0 113 1) ~dst:(ip 203 0 113 2) ~sport:1 ~dport:2 ())
  in
  Alcotest.(check bool) "foreign 5-tuple rejected" false
    (Filter.accepts_flowid prefix_filter full_other);
  ignore other

let test_filter_exact_key () =
  Alcotest.(check (option string)) "full 5-tuple recovered"
    (Some (Flow.to_string key))
    (Option.map Flow.to_string (Filter.exact_key (Filter.of_key key)));
  Alcotest.(check bool) "partial filter has no key" true
    (Filter.exact_key (Filter.of_src_host (ip 1 1 1 1)) = None)

let test_filter_app_field () =
  let flowid = Filter.of_app "/objects/a" in
  Alcotest.(check bool) "app flowid self-accepted" true
    (Filter.accepts_flowid (Filter.of_app "/objects/a") flowid);
  Alcotest.(check bool) "different url rejected" false
    (Filter.accepts_flowid (Filter.of_app "/objects/b") flowid);
  Alcotest.(check bool) "wildcard accepts" true
    (Filter.accepts_flowid Filter.any flowid)

let accepts_own_flowid_prop =
  QCheck.Test.make ~name:"filter accepts its own flows' flowids" ~count:500
    flow_arbitrary (fun k ->
      Filter.accepts_flowid (Filter.of_key k) (Filter.of_key k)
      && Filter.accepts_flowid Filter.any (Filter.of_key k)
      && Filter.accepts_flowid
           (Filter.of_src_host k.Flow.src_ip)
           (Filter.of_key k))

let matches_flow_symmetric_prop =
  QCheck.Test.make ~name:"matches_flow is direction-independent" ~count:500
    flow_arbitrary (fun k ->
      let f = Filter.of_src_host k.Flow.src_ip in
      Filter.matches_flow f k = Filter.matches_flow f (Flow.reverse k))

(* --- key hashes --------------------------------------------------------- *)

(* [Flow.hash] and [Filter.hash] back every [Flow.Table] and
   [Filter.Table]; [Hashtbl] iteration order (e.g. the order
   [Move.flush_all] relays buffered packets in) follows the hash values,
   so they are pinned bit for bit. *)
let golden_keys =
  let ip = Ipaddr.of_string in
  [
    ( Flow.make ~src:(ip "10.0.0.1") ~dst:(ip "192.168.1.1") ~sport:1234
        ~dport:80 (),
      1031412429320911008 );
    ( Flow.make ~src:(ip "10.1.2.3") ~dst:(ip "10.1.2.3") ~proto:Flow.Udp
        ~sport:53 ~dport:53 (),
      2572400205908473522 );
    ( Flow.make ~src:(ip "255.255.255.255") ~dst:(ip "0.0.0.0")
        ~proto:Flow.Icmp ~sport:0 ~dport:65535 (),
      2599731874729852322 );
  ]

let golden_filters =
  let ip = Ipaddr.of_string in
  [
    (Filter.any, 3479462002462992362);
    (Filter.of_key (fst (List.hd golden_keys)), 2089269270542142718);
    (Filter.of_src_host (ip "10.0.0.1"), 3485942087740256566);
    (Filter.of_dst_host (ip "192.168.1.1"), 184390884675754580);
    ( Filter.of_src_prefix (Ipaddr.Prefix.of_string "10.1.0.0/16"),
      4149032728902989584 );
    ( Filter.make ~proto:Flow.Udp ~dst_port:53 ~tcp_flag:Packet.Syn (),
      4380010157364937806 );
    (Filter.of_app "http", 3812628493979401778);
  ]

let test_hash_golden () =
  List.iter
    (fun (k, h) -> Alcotest.(check int) (Flow.to_string k) h (Flow.hash k))
    golden_keys;
  List.iter
    (fun (f, h) -> Alcotest.(check int) (Filter.to_string f) h (Filter.hash f))
    golden_filters

let test_hash_alloc_budget () =
  let zero name f =
    Alcotest.(check (float 0.0)) (name ^ " allocates nothing") 0.0
      (Helpers.minor_words_per ~iters:1000 f)
  in
  List.iter
    (fun (k, _) -> zero "Flow.hash" (fun () -> ignore (Flow.hash k)))
    golden_keys;
  List.iter
    (fun ((f : Filter.t), _) ->
      if f.app = None then begin
        zero ("Filter.hash " ^ Filter.to_string f) (fun () ->
            ignore (Filter.hash f));
        zero ("Filter.equal " ^ Filter.to_string f) (fun () ->
            ignore (Filter.equal f f))
      end)
    golden_filters;
  (* Two separately built flowids: every option box differs. *)
  let k = fst (List.hd golden_keys) in
  let a = Filter.of_key k and b = Filter.of_key k in
  zero "Filter.equal (separate boxes)" (fun () -> ignore (Filter.equal a b))

(* --- flowtable ----------------------------------------------------------- *)

let pkt ?(flags = []) k = Packet.create ~id:0 ~key:k ~flags ~sent_at:0.0 ()

let test_flowtable_priority () =
  let t = Flowtable.create () in
  Flowtable.install t ~cookie:1 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "low" ];
  Flowtable.install t ~cookie:2 ~priority:200 ~filters:[ Filter.of_key key ]
    ~actions:[ Flowtable.Forward "high" ];
  (match Flowtable.lookup t (pkt key) with
  | Some r -> Alcotest.(check int) "high priority wins" 2 r.Flowtable.cookie
  | None -> Alcotest.fail "no match");
  let other = Flow.make ~src:(ip 9 9 9 9) ~dst:(ip 8 8 8 8) ~sport:1 ~dport:2 () in
  match Flowtable.lookup t (pkt other) with
  | Some r -> Alcotest.(check int) "fallback" 1 r.Flowtable.cookie
  | None -> Alcotest.fail "no fallback"

let test_flowtable_replace_cookie () =
  let t = Flowtable.create () in
  Flowtable.install t ~cookie:7 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "a" ];
  Flowtable.install t ~cookie:7 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "b" ];
  Alcotest.(check int) "one rule" 1 (Flowtable.size t);
  match Flowtable.lookup t (pkt key) with
  | Some { Flowtable.actions = [ Flowtable.Forward "b" ]; _ } -> ()
  | _ -> Alcotest.fail "replacement not in effect"

let test_flowtable_tie_latest_wins () =
  let t = Flowtable.create () in
  Flowtable.install t ~cookie:1 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "first" ];
  Flowtable.install t ~cookie:2 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "second" ];
  match Flowtable.lookup t (pkt key) with
  | Some r -> Alcotest.(check int) "latest wins tie" 2 r.Flowtable.cookie
  | None -> Alcotest.fail "no match"

let test_flowtable_remove_and_counters () =
  let t = Flowtable.create () in
  Flowtable.install t ~cookie:1 ~priority:100 ~filters:[ Filter.any ]
    ~actions:[ Flowtable.Forward "x" ];
  ignore (Flowtable.lookup t (pkt key));
  ignore (Flowtable.lookup t (pkt key));
  (match Flowtable.find t ~cookie:1 with
  | Some r -> Alcotest.(check int) "matched counter" 2 r.Flowtable.matched
  | None -> Alcotest.fail "rule missing");
  Flowtable.remove t ~cookie:1;
  Alcotest.(check bool) "removed" true (Flowtable.lookup t (pkt key) = None)

let test_flowtable_multi_filter_rule () =
  let t = Flowtable.create () in
  Flowtable.install t ~cookie:1 ~priority:100
    ~filters:[ Filter.of_key key; Filter.of_key (Flow.reverse key) ]
    ~actions:[ Flowtable.Forward "nf" ];
  Alcotest.(check bool) "forward dir" true (Flowtable.lookup t (pkt key) <> None);
  Alcotest.(check bool) "reverse dir" true
    (Flowtable.lookup t (pkt (Flow.reverse key)) <> None)

(* A lookup walks both indexes and returns the option made at install:
   the exact probe, the flag re-check through the cookie map and the
   wild-bucket scan allocate nothing, whichever index wins or when no
   rule matches. *)
let test_flowtable_lookup_alloc () =
  let t = Flowtable.create () in
  let exact = Filter.of_key key in
  Flowtable.install t ~cookie:1 ~priority:100
    ~filters:[ Filter.of_src_prefix (Ipaddr.Prefix.of_string "10.0.0.0/8") ]
    ~actions:[ Flowtable.Forward "wild" ];
  Flowtable.install t ~cookie:2 ~priority:200 ~filters:[ exact; Filter.mirror exact ]
    ~actions:[ Flowtable.Forward "exact" ];
  Flowtable.install t ~cookie:3 ~priority:300
    ~filters:[ { exact with Filter.tcp_flag = Some Packet.Syn } ]
    ~actions:[ Flowtable.To_controller ];
  Flowtable.install t ~cookie:4 ~priority:50
    ~filters:[ Filter.make ~dst_port:9 ~tcp_flag:Packet.Syn () ]
    ~actions:[ Flowtable.To_controller ];
  let wild_only = Flow.make ~src:(ip 10 9 9 9) ~dst:(ip 8 8 8 8) ~sport:1 ~dport:9 () in
  let miss = Flow.make ~src:(ip 9 9 9 9) ~dst:(ip 8 8 8 8) ~sport:1 ~dport:9 () in
  List.iter
    (fun (what, p, cookie) ->
      Alcotest.(check (option int)) (what ^ ": winner") cookie
        (Option.map (fun r -> r.Flowtable.cookie) (Flowtable.lookup t p));
      Alcotest.(check (float 0.0)) (what ^ ": allocates nothing") 0.0
        (Helpers.minor_words_per ~iters:1000 (fun () -> ignore (Flowtable.lookup t p))))
    [
      ("exact rule", pkt key, Some 2);
      ("exact rule, reverse", pkt (Flow.reverse key), Some 2);
      ("flag-constrained exact rule", pkt ~flags:[ Packet.Syn ] key, Some 3);
      ("wild rule", pkt wild_only, Some 1);
      ("flag-constrained wild rule", pkt ~flags:[ Packet.Syn ] miss, Some 4);
      ("no rule", pkt miss, None);
    ]

(* [rules] is newest-first by install sequence: re-installing a cookie
   moves it to the front, removing one closes the gap. *)
let test_flowtable_rules_order () =
  let t = Flowtable.create () in
  let install cookie =
    Flowtable.install t ~cookie ~priority:100 ~filters:[ Filter.any ]
      ~actions:[ Flowtable.Forward "nf" ]
  in
  let cookies () = List.map (fun r -> r.Flowtable.cookie) (Flowtable.rules t) in
  List.iter install [ 1; 2; 3 ];
  Alcotest.(check (list int)) "newest first" [ 3; 2; 1 ] (cookies ());
  install 1;
  Alcotest.(check (list int)) "re-install moves to front" [ 1; 3; 2 ]
    (cookies ());
  Flowtable.remove t ~cookie:3;
  Alcotest.(check (list int)) "remove closes the gap" [ 1; 2 ] (cookies ())

(* --- channel ---------------------------------------------------------------- *)

let test_channel_latency_and_order () =
  let e = Engine.create () in
  let log = ref [] in
  let ch = Channel.create e ~latency:0.010 ~name:"t" () in
  Channel.set_handler ch (fun v -> log := (Engine.now e, v) :: !log);
  Channel.send ch 1;
  Engine.schedule e ~delay:0.001 (fun () -> Channel.send ch 2);
  Engine.run e;
  Alcotest.(check (list (pair (float 1e-9) int)))
    "latency + order"
    [ (0.010, 1); (0.011, 2) ]
    (List.rev !log)

let test_channel_bandwidth_serializes () =
  let e = Engine.create () in
  let log = ref [] in
  let ch = Channel.create e ~latency:0.0 ~bandwidth:1000.0 ~name:"t" () in
  Channel.set_handler ch (fun v -> log := (Engine.now e, v) :: !log);
  Channel.send ch ~size:500 "big";
  Channel.send ch ~size:100 "small";
  Engine.run e;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "serialization delay"
    [ (0.5, "big"); (0.6, "small") ]
    (List.rev !log)

let test_channel_counts () =
  let e = Engine.create () in
  let ch = Channel.create e ~latency:0.0 ~name:"t" () in
  Channel.set_handler ch ignore;
  Channel.send ch ~size:10 ();
  Channel.send ch ~size:20 ();
  Alcotest.(check int) "count" 2 (Channel.sent_count ch);
  Alcotest.(check int) "bytes" 30 (Channel.bytes_sent ch);
  Engine.run e

(* --- switch -------------------------------------------------------------------- *)

type sw_bed = {
  e : Engine.t;
  audit : Audit.t;
  sw : Switch.t;
  received : (string * int) list ref;  (* port, packet id *)
  ctrl_msgs : Switch.from_switch list ref;
}

let switch_bed ?flow_mod_delay () =
  let e = Engine.create () in
  let audit = Audit.create e in
  let sw = Switch.create e audit ~name:"sw" ?flow_mod_delay () in
  let received = ref [] in
  let attach name =
    let ch = Channel.create e ~latency:0.0001 ~name () in
    Channel.set_handler ch (fun (p : Packet.t) ->
        received := (name, p.Packet.id) :: !received);
    Switch.attach_port sw ~name ch
  in
  attach "nf1";
  attach "nf2";
  let ctrl_msgs = ref [] in
  let to_ctrl = Channel.create e ~latency:0.0001 ~name:"sw->ctrl" () in
  Channel.set_handler to_ctrl (fun m -> ctrl_msgs := m :: !ctrl_msgs);
  Switch.set_controller sw to_ctrl;
  { e; audit; sw; received; ctrl_msgs }

let test_switch_forwards_by_rule () =
  let b = switch_bed () in
  Switch.control b.sw
    (Switch.Install
       { cookie = 1; priority = 100; filters = [ Filter.any ];
         actions = [ Flowtable.Forward "nf1" ] });
  Engine.schedule b.e ~delay:0.05 (fun () ->
      Switch.inject b.sw (Packet.create ~id:42 ~key ~sent_at:0.05 ()));
  Engine.run b.e;
  Alcotest.(check (list (pair string int))) "delivered" [ ("nf1", 42) ] !(b.received)

let test_switch_flow_mod_delay () =
  let b = switch_bed ~flow_mod_delay:0.010 () in
  Switch.control b.sw
    (Switch.Install
       { cookie = 1; priority = 100; filters = [ Filter.any ];
         actions = [ Flowtable.Forward "nf1" ] });
  (* Before the mod applies: table miss. *)
  Engine.schedule b.e ~delay:0.005 (fun () ->
      Switch.inject b.sw (Packet.create ~id:1 ~key ~sent_at:0.005 ()));
  Engine.schedule b.e ~delay:0.015 (fun () ->
      Switch.inject b.sw (Packet.create ~id:2 ~key ~sent_at:0.015 ()));
  Engine.run b.e;
  Alcotest.(check (list (pair string int))) "only the late one" [ ("nf1", 2) ]
    !(b.received);
  Alcotest.(check int) "early one missed" 1 (Switch.table_misses b.sw)

let test_switch_packet_in_and_multi_action () =
  let b = switch_bed () in
  Switch.control b.sw
    (Switch.Install
       { cookie = 1; priority = 100; filters = [ Filter.any ];
         actions = [ Flowtable.Forward "nf1"; Flowtable.To_controller ] });
  Engine.schedule b.e ~delay:0.05 (fun () ->
      Switch.inject b.sw (Packet.create ~id:7 ~key ~sent_at:0.05 ()));
  Engine.run b.e;
  Alcotest.(check (list (pair string int))) "forwarded" [ ("nf1", 7) ] !(b.received);
  match !(b.ctrl_msgs) with
  | [ Switch.Packet_in { packet; _ } ] ->
    Alcotest.(check int) "packet-in id" 7 packet.Packet.id
  | _ -> Alcotest.fail "expected exactly one packet-in"

let test_switch_barrier_after_mods () =
  let b = switch_bed ~flow_mod_delay:0.010 () in
  Switch.control b.sw
    (Switch.Install
       { cookie = 1; priority = 100; filters = [ Filter.any ];
         actions = [ Flowtable.Forward "nf1" ] });
  Switch.control b.sw (Switch.Barrier { id = 9 });
  let reply_at = ref 0.0 in
  let saw = ref false in
  Channel.set_handler
    (let ch = Channel.create b.e ~latency:0.0 ~name:"x" () in
     Switch.set_controller b.sw ch;
     ch)
    (fun m ->
      match m with
      | Switch.Barrier_reply { id } ->
        Alcotest.(check int) "id echo" 9 id;
        saw := true;
        reply_at := Engine.now b.e
      | Switch.Packet_in _ -> ());
  Engine.run b.e;
  Alcotest.(check bool) "reply seen" true !saw;
  Alcotest.(check bool) "after flow-mod applied" true (!reply_at >= 0.010)

(* A switch->controller message for a connection with no bound channel
   is a wiring error, like a forward out an unknown port: it raises
   instead of vanishing. *)
let test_switch_unbound_connection_raises () =
  let b = switch_bed () in
  Switch.control b.sw
    (Switch.Install
       { cookie = 1; priority = 100; filters = [ Filter.any ];
         actions = [ Flowtable.To_controller ] });
  Engine.run b.e;
  Switch.set_packet_in_router b.sw (fun _ -> 1);
  Alcotest.check_raises "packet-in to unbound connection"
    (Invalid_argument "Switch sw: no controller on connection 1") (fun () ->
      Switch.inject b.sw (Packet.create ~id:3 ~key ~sent_at:0.0 ()));
  Switch.control_from b.sw ~conn:2 (Switch.Barrier { id = 1 });
  Alcotest.check_raises "barrier reply to unbound connection"
    (Invalid_argument "Switch sw: no controller on connection 2") (fun () ->
      Engine.run b.e);
  Alcotest.(check int) "nothing reached the bound controller" 0
    (List.length !(b.ctrl_msgs));
  let b = switch_bed () in
  Switch.control b.sw
    (Switch.Packet_out
       { port = "nf9"; packet = Packet.create ~id:4 ~key ~sent_at:0.0 () });
  Alcotest.check_raises "forward out an unknown port"
    (Invalid_argument "Switch sw: no port nf9") (fun () -> Engine.run b.e)

let test_switch_packet_out_rate_limit () =
  let e = Engine.create () in
  let audit = Audit.create e in
  let sw = Switch.create e audit ~name:"sw" ~packet_out_rate:100.0 () in
  let times = ref [] in
  let ch = Channel.create e ~latency:0.0 ~name:"nf1" () in
  Channel.set_handler ch (fun (_ : Packet.t) -> times := Engine.now e :: !times);
  Switch.attach_port sw ~name:"nf1" ch;
  for i = 0 to 4 do
    Switch.control sw
      (Switch.Packet_out
         { port = "nf1"; packet = Packet.create ~id:i ~key ~sent_at:0.0 () })
  done;
  Alcotest.(check int) "backlog visible" 5 (Switch.packet_out_backlog sw);
  Engine.run e;
  match List.rev !times with
  | [ _; t2; _; _; t5 ] ->
    Alcotest.(check (float 1e-9)) "second at 1/rate spacing" 0.02 t2;
    Alcotest.(check (float 1e-9)) "fifth" 0.05 t5
  | _ -> Alcotest.fail "expected 5 deliveries"

let suite =
  [
    Alcotest.test_case "ipaddr: string roundtrip" `Quick test_ip_string_roundtrip;
    Alcotest.test_case "ipaddr: rejects bad input" `Quick test_ip_rejects_bad;
    Alcotest.test_case "prefix: membership" `Quick test_prefix_membership;
    Alcotest.test_case "prefix: subset" `Quick test_prefix_subset;
    Alcotest.test_case "prefix: normalizes" `Quick test_prefix_normalizes_host_bits;
    Alcotest.test_case "flow: canonical" `Quick test_flow_canonical_involution;
    Alcotest.test_case "flow: reverse involution" `Quick
      test_flow_reverse_involution;
    QCheck_alcotest.to_alcotest flow_canonical_prop;
    QCheck_alcotest.to_alcotest flow_hash_consistent_prop;
    Alcotest.test_case "filter: any" `Quick test_filter_any_matches;
    Alcotest.test_case "filter: directed vs flow-level" `Quick
      test_filter_directed_vs_flow;
    Alcotest.test_case "filter: ports/proto" `Quick test_filter_ports_proto;
    Alcotest.test_case "filter: tcp flag" `Quick test_filter_tcp_flag;
    Alcotest.test_case "filter: mirror" `Quick test_filter_mirror;
    Alcotest.test_case "filter: symmetry" `Quick test_filter_symmetric;
    Alcotest.test_case "filter: accepts_flowid" `Quick test_accepts_flowid;
    Alcotest.test_case "filter: exact key" `Quick test_filter_exact_key;
    Alcotest.test_case "filter: app (URL) field" `Quick test_filter_app_field;
    QCheck_alcotest.to_alcotest accepts_own_flowid_prop;
    QCheck_alcotest.to_alcotest matches_flow_symmetric_prop;
    Alcotest.test_case "hash: golden Flow/Filter values" `Quick
      test_hash_golden;
    Alcotest.test_case "alloc budget: key hashes and Filter.equal" `Quick
      test_hash_alloc_budget;
    Alcotest.test_case "flowtable: priority" `Quick test_flowtable_priority;
    Alcotest.test_case "flowtable: cookie replace" `Quick
      test_flowtable_replace_cookie;
    Alcotest.test_case "flowtable: tie latest wins" `Quick
      test_flowtable_tie_latest_wins;
    Alcotest.test_case "flowtable: remove & counters" `Quick
      test_flowtable_remove_and_counters;
    Alcotest.test_case "flowtable: multi-filter rule" `Quick
      test_flowtable_multi_filter_rule;
    Alcotest.test_case "flowtable: rules newest first" `Quick
      test_flowtable_rules_order;
    Alcotest.test_case "flowtable: lookup allocates nothing" `Quick
      test_flowtable_lookup_alloc;
    Alcotest.test_case "channel: latency & order" `Quick
      test_channel_latency_and_order;
    Alcotest.test_case "channel: bandwidth" `Quick test_channel_bandwidth_serializes;
    Alcotest.test_case "channel: counters" `Quick test_channel_counts;
    Alcotest.test_case "switch: forwards by rule" `Quick test_switch_forwards_by_rule;
    Alcotest.test_case "switch: flow-mod delay" `Quick test_switch_flow_mod_delay;
    Alcotest.test_case "switch: packet-in & multi-action" `Quick
      test_switch_packet_in_and_multi_action;
    Alcotest.test_case "switch: barrier waits for mods" `Quick
      test_switch_barrier_after_mods;
    Alcotest.test_case "switch: packet-out rate limit" `Quick
      test_switch_packet_out_rate_limit;
    Alcotest.test_case "switch: unbound connection raises" `Quick
      test_switch_unbound_connection_raises;
  ]
