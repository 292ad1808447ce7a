module Hashing = Opennf_util.Hashing
module Bytes_io = Opennf_util.Bytes_io
open Opennf_net
open Opennf_state

type alert =
  | Port_scan of Ipaddr.t
  | Malware of { flow : Flow.key; digest : int64 }
  | Weird of { kind : string; flow : Flow.key }
  | Outdated_browser of { flow : Flow.key; agent : string }

module Port_set = Set.Make (Int)
module Ip_set = Set.Make (Ipaddr)

type http_analyzer = {
  mutable url : string;
  mutable agent : string;
  mutable body : Hashing.Digest_sig.t;
  mutable body_bytes : int;
  (* TCP reassembly of the reply: segments are digested in sequence
     order regardless of arrival order, like Bro's reassembler. *)
  mutable next_seq : int;
  mutable pending : (int * string) list;  (* out-of-order segments *)
  mutable fin_seq : int option;  (* seq of the reply's last segment *)
}

type conn = {
  key : Flow.key;  (* Canonical orientation. *)
  client : Ipaddr.t;  (* Source of the first packet seen. *)
  mutable established : bool;  (* A SYN was seen. *)
  mutable started_properly : bool;  (* The first packet was the SYN. *)
  mutable pkts : int;
  mutable bytes : int;
  mutable fin_seen : bool;
  mutable http : http_analyzer option;
}

type host_counters = {
  mutable attempts : int;
  mutable ports : Port_set.t;
  mutable targets : Ip_set.t;  (* Hosts this source attempted to reach. *)
  mutable scan_alerted : bool;
}

type globals = { mutable g_pkts : int; mutable g_bytes : int; mutable g_flows : int }

type t = {
  malware : (int64, unit) Hashtbl.t;
  scan_threshold : int;
  check_malware : bool;
  outdated_agents : string list;
  conns : conn Store.Perflow.t;
  hosts : host_counters Store.Per_host.t;
  globals : globals;
  mutable alerts : alert list;  (* Newest first. *)
  mutable alert_hooks : (alert -> unit) list;
  mutable bogus_imports : int;
}

let create ?(malware = []) ?(scan_threshold = 10) ?(check_malware = true) () =
  let table = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace table d ()) malware;
  {
    malware = table;
    scan_threshold;
    check_malware;
    outdated_agents = [ "IE6"; "Netscape4" ];
    conns = Store.Perflow.create ();
    hosts = Store.Per_host.create ();
    globals = { g_pkts = 0; g_bytes = 0; g_flows = 0 };
    alerts = [];
    alert_hooks = [];
    bogus_imports = 0;
  }

let raise_alert t alert =
  t.alerts <- alert :: t.alerts;
  List.iter (fun hook -> hook alert) t.alert_hooks

(* --- packet processing ------------------------------------------------ *)

let parse_request payload =
  (* "GET <url> UA=<agent>" *)
  match String.split_on_char ' ' payload with
  | "GET" :: url :: rest ->
    let agent =
      List.find_map
        (fun part ->
          if String.length part > 3 && String.sub part 0 3 = "UA=" then
            Some (String.sub part 3 (String.length part - 3))
          else None)
        rest
    in
    Some (url, Option.value ~default:"unknown" agent)
  | _ -> None

let new_conn t (p : Packet.t) =
  t.globals.g_flows <- t.globals.g_flows + 1;
  {
    key = Flow.canonical p.key;
    client = p.key.Flow.src_ip;
    established = Packet.is_syn p;
    started_properly = Packet.is_syn p;
    pkts = 0;
    bytes = 0;
    fin_seen = false;
    http = None;
  }

let track_scan t (p : Packet.t) =
  if Packet.is_syn p then
    Store.Per_host.update t.hosts p.key.Flow.src_ip
      ~default:(fun () ->
        {
          attempts = 0;
          ports = Port_set.empty;
          targets = Ip_set.empty;
          scan_alerted = false;
        })
      ~f:(fun c ->
        c.attempts <- c.attempts + 1;
        c.ports <- Port_set.add p.key.Flow.dst_port c.ports;
        c.targets <- Ip_set.add p.key.Flow.dst_ip c.targets;
        if Port_set.cardinal c.ports >= t.scan_threshold && not c.scan_alerted
        then begin
          c.scan_alerted <- true;
          raise_alert t (Port_scan p.key.Flow.src_ip)
        end;
        c)

let http_of conn =
  match conn.http with
  | Some h -> h
  | None ->
    let h =
      {
        url = "";
        agent = "";
        body = Hashing.Digest_sig.create ();
        body_bytes = 0;
        next_seq = 1;
        pending = [];
        fin_seq = None;
      }
    in
    conn.http <- Some h;
    h

(* Feed reply segments to the digest in sequence order, buffering
   out-of-order arrivals and dropping duplicates. *)
let rec feed_in_order h seq payload =
  if seq = h.next_seq then begin
    Hashing.Digest_sig.feed h.body payload;
    h.body_bytes <- h.body_bytes + String.length payload;
    h.next_seq <- h.next_seq + 1;
    match List.assoc_opt h.next_seq h.pending with
    | Some next ->
      h.pending <- List.remove_assoc h.next_seq h.pending;
      feed_in_order h h.next_seq next
    | None -> ()
  end
  else if seq > h.next_seq && not (List.mem_assoc seq h.pending) then
    h.pending <- (seq, payload) :: h.pending

let reply_complete h =
  match h.fin_seq with None -> false | Some fin -> h.next_seq > fin

let analyze_http t conn (p : Packet.t) =
  let from_client = Ipaddr.equal p.key.Flow.src_ip conn.client in
  if from_client then begin
    match parse_request p.payload with
    | Some (url, agent) ->
      let h = http_of conn in
      h.url <- url;
      h.agent <- agent;
      if List.mem agent t.outdated_agents then
        raise_alert t (Outdated_browser { flow = conn.key; agent })
    | None -> ()
  end
  else begin
    (* Server-to-client: reply body bytes, reassembled by sequence. *)
    if String.length p.payload > 0 then begin
      let h = http_of conn in
      feed_in_order h p.seq p.payload
    end;
    if Packet.has_flag p Fin then begin
      let h = http_of conn in
      if h.fin_seq = None then h.fin_seq <- Some p.seq
    end;
    if t.check_malware then
      match conn.http with
      | Some h when h.body_bytes > 0 && reply_complete h ->
        let digest = Hashing.Digest_sig.value h.body in
        if Hashtbl.mem t.malware digest then begin
          h.fin_seq <- None;  (* Alert once per reply. *)
          raise_alert t (Malware { flow = conn.key; digest })
        end
      | Some _ | None -> ()
  end

let process_packet t (p : Packet.t) =
  t.globals.g_pkts <- t.globals.g_pkts + 1;
  t.globals.g_bytes <- t.globals.g_bytes + String.length p.payload;
  track_scan t p;
  let conn =
    match Store.Perflow.find t.conns p.key with
    | Some c -> c
    | None ->
      let c = new_conn t p in
      Store.Perflow.set t.conns p.key c;
      c
  in
  if Packet.is_syn p then begin
    if conn.pkts > 0 then
      raise_alert t (Weird { kind = "SYN_inside_connection"; flow = conn.key });
    conn.established <- true
  end;
  conn.pkts <- conn.pkts + 1;
  conn.bytes <- conn.bytes + String.length p.payload;
  if Packet.has_flag p Fin then conn.fin_seen <- true;
  if p.key.Flow.proto = Flow.Tcp then analyze_http t conn p

(* --- serialization ---------------------------------------------------- *)

let put_key w (k : Flow.key) =
  let open Bytes_io.Writer in
  int w (Ipaddr.to_int k.src_ip);
  int w (Ipaddr.to_int k.dst_ip);
  u8 w (match k.proto with Flow.Tcp -> 0 | Udp -> 1 | Icmp -> 2);
  u16 w k.src_port;
  u16 w k.dst_port

let get_key r =
  let open Bytes_io.Reader in
  let src = Ipaddr.of_int (int r) in
  let dst = Ipaddr.of_int (int r) in
  let proto =
    match u8 r with
    | 0 -> Flow.Tcp
    | 1 -> Flow.Udp
    | 2 -> Flow.Icmp
    | n -> raise (Bytes_io.Decode_error (Printf.sprintf "bad proto %d" n))
  in
  let sport = u16 r in
  let dport = u16 r in
  Flow.make ~src ~dst ~proto ~sport ~dport ()

let conn_chunk conn =
  Chunk.encode ~kind:"ids.conn" (fun w ->
      let open Bytes_io.Writer in
      put_key w conn.key;
      int w (Ipaddr.to_int conn.client);
      bool w conn.established;
      bool w conn.started_properly;
      int w conn.pkts;
      int w conn.bytes;
      bool w conn.fin_seen;
      match conn.http with
      | None -> bool w false
      | Some h ->
        bool w true;
        string w h.url;
        string w h.agent;
        let digest_h, digest_n = Hashing.Digest_sig.export h.body in
        i64 w digest_h;
        int w digest_n;
        int w h.body_bytes;
        int w h.next_seq;
        list w
          (fun (seq, payload) ->
            int w seq;
            string w payload)
          h.pending;
        (match h.fin_seq with
        | None -> bool w false
        | Some fin ->
          bool w true;
          int w fin))

let conn_of_chunk chunk =
  let r = Chunk.reader chunk in
  let open Bytes_io.Reader in
  let key = get_key r in
  let client = Ipaddr.of_int (int r) in
  let established = bool r in
  let started_properly = bool r in
  let pkts = int r in
  let bytes = int r in
  let fin_seen = bool r in
  let http =
    if bool r then begin
      let url = string r in
      let agent = string r in
      let digest_h = i64 r in
      let digest_n = int r in
      let body_bytes = int r in
      let next_seq = int r in
      let pending =
        list r (fun () ->
            let seq = int r in
            let payload = string r in
            (seq, payload))
      in
      let fin_seq = if bool r then Some (int r) else None in
      Some
        {
          url;
          agent;
          body = Hashing.Digest_sig.restore (digest_h, digest_n);
          body_bytes;
          next_seq;
          pending;
          fin_seq;
        }
    end
    else None
  in
  { key; client; established; started_properly; pkts; bytes; fin_seen; http }

let host_chunk ip (c : host_counters) =
  Chunk.encode ~kind:"ids.host" (fun w ->
      let open Bytes_io.Writer in
      int w (Ipaddr.to_int ip);
      int w c.attempts;
      list w (u16 w) (Port_set.elements c.ports);
      list w (fun ip -> int w (Ipaddr.to_int ip)) (Ip_set.elements c.targets);
      bool w c.scan_alerted)

let host_of_chunk chunk =
  let r = Chunk.reader chunk in
  let open Bytes_io.Reader in
  let ip = Ipaddr.of_int (int r) in
  let attempts = int r in
  let ports = Port_set.of_list (list r (fun () -> u16 r)) in
  let targets =
    Ip_set.of_list (List.map Ipaddr.of_int (list r (fun () -> int r)))
  in
  let scan_alerted = bool r in
  (ip, { attempts; ports; targets; scan_alerted })

let globals_chunk g =
  Chunk.encode ~kind:"ids.globals" (fun w ->
      let open Bytes_io.Writer in
      int w g.g_pkts;
      int w g.g_bytes;
      int w g.g_flows)

(* --- southbound implementation ---------------------------------------- *)

let list_perflow t filter =
  List.map (fun (k, _) -> Filter.of_key k) (Store.Perflow.matching t.conns filter)

let export_perflow t flowid =
  match Filter.exact_key flowid with
  | None -> None
  | Some key ->
    Option.map conn_chunk (Store.Perflow.find t.conns key)

let import_perflow t _flowid chunk =
  match conn_of_chunk chunk with
  | conn -> Store.Perflow.set t.conns conn.key conn
  | exception Bytes_io.Decode_error _ -> t.bogus_imports <- t.bogus_imports + 1

let delete_perflow t flowid =
  match Filter.exact_key flowid with
  | None -> ()
  | Some key -> Store.Perflow.remove t.conns key

(* A host counter is relevant to a filter if the counted host itself
   matches, or if any host it attempted to reach matches — so a filter
   naming a local prefix selects the counters of external hosts scanning
   into that prefix (the movePrefix application's copy, Figure 8). *)
let counter_relevant filter ip (c : host_counters) =
  Filter.matches_host filter ip
  || Ip_set.exists (fun target -> Filter.matches_host filter target) c.targets

let list_multiflow t filter =
  Store.Per_host.fold t.hosts ~init:[] ~f:(fun ip c acc ->
      if counter_relevant filter ip c then Filter.of_src_host ip :: acc
      else acc)
  |> List.sort Filter.compare

let export_multiflow t flowid =
  match Filter.exact_src_host flowid with
  | None -> None
  | Some ip -> Option.map (host_chunk ip) (Store.Per_host.find t.hosts ip)

let import_multiflow t _flowid chunk =
  let ip, incoming = host_of_chunk chunk in
  match Store.Per_host.find t.hosts ip with
  | None -> Store.Per_host.set t.hosts ip incoming
  | Some existing ->
    (* Merge (§4.2): add counters, union sets. *)
    existing.attempts <- existing.attempts + incoming.attempts;
    existing.ports <- Port_set.union existing.ports incoming.ports;
    existing.targets <- Ip_set.union existing.targets incoming.targets;
    existing.scan_alerted <- existing.scan_alerted || incoming.scan_alerted

let delete_multiflow t flowid =
  match Filter.exact_src_host flowid with
  | None -> ()
  | Some ip -> Store.Per_host.remove t.hosts ip

let export_allflows t = [ globals_chunk t.globals ]

let import_allflows t chunks =
  List.iter
    (fun chunk ->
      let r = Chunk.reader chunk in
      let open Bytes_io.Reader in
      t.globals.g_pkts <- t.globals.g_pkts + int r;
      t.globals.g_bytes <- t.globals.g_bytes + int r;
      t.globals.g_flows <- t.globals.g_flows + int r)
    chunks

let impl t =
  {
    Opennf_sb.Nf_api.kind = "bro";
    process_packet = process_packet t;
    list_perflow = list_perflow t;
    export_perflow = export_perflow t;
    import_perflow = import_perflow t;
    delete_perflow = delete_perflow t;
    list_multiflow = list_multiflow t;
    export_multiflow = export_multiflow t;
    import_multiflow = import_multiflow t;
    delete_multiflow = delete_multiflow t;
    export_allflows = (fun () -> export_allflows t);
    import_allflows = import_allflows t;
  }

(* --- inspection -------------------------------------------------------- *)

let alert_log t = List.rev t.alerts
let on_alert t hook = t.alert_hooks <- hook :: t.alert_hooks
let conn_count t = Store.Perflow.size t.conns
let total_bytes t = t.globals.g_bytes

let bogus_log_entries t =
  Store.Perflow.fold t.conns ~init:0 ~f:(fun _ conn acc ->
      if conn.key.Flow.proto <> Flow.Tcp then acc
      else if not conn.started_properly then acc + 1
      else if conn.established && not conn.fin_seen then acc + 1
      else acc)
