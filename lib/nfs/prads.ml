module Bytes_io = Opennf_util.Bytes_io
module Arena = Opennf_util.Arena
module Pfa = Opennf_state.Store.Perflow_arena
open Opennf_net
open Opennf_state

(* Connection records are arena rows (the hot, million-entry state);
   asset records and the globals stay boxed — there is one asset per
   host, not per flow, and their service maps are genuinely structured.
   A row is read and written in place: its handle is validated once
   ([Arena.index]), then every field is a load or store at a raw byte
   offset into the row's slab. *)
let off_first = Pfa.payload_off (* f64 *)
let off_last = Pfa.payload_off + 8 (* f64 *)
let off_pkts = Pfa.payload_off + 16 (* int *)
let off_bytes = Pfa.payload_off + 24 (* int *)
let payload_bytes = 32

(* Little-endian row fields; 8-byte ones hold an int sign-extended to
   64 bits or a float's IEEE bits, as the arena's typed accessors
   encode them. *)
let[@inline] get_u32 b o =
  Int32.to_int (Bytes.get_int32_le b o) land 0xFFFF_FFFF
let[@inline] get_int b o = Int64.to_int (Bytes.get_int64_le b o)
let[@inline] set_int b o v = Bytes.set_int64_le b o (Int64.of_int v)
let[@inline] get_f64 b o = Int64.float_of_bits (Bytes.get_int64_le b o)
let[@inline] set_f64 b o v = Bytes.set_int64_le b o (Int64.bits_of_float v)

module Service_map = Map.Make (Int)

type asset = {
  ip : Ipaddr.t;
  mutable os_guess : string;
  mutable services : string Service_map.t;  (* port -> service *)
  mutable a_first_seen : float;
  mutable a_last_seen : float;
}

type globals = { mutable g_pkts : int; mutable g_bytes : int; mutable g_flows : int }

type t = {
  conns : Pfa.t;
  assets : asset Store.Per_host.t;
  globals : globals;
  mutable now : float;  (* Advanced by packet timestamps. *)
}

let state_id : t Type.Id.t = Type.Id.make ()

let create ?backend () =
  let make () =
    {
      conns = Pfa.create ~payload:payload_bytes ();
      assets = Store.Per_host.create ();
      globals = { g_pkts = 0; g_bytes = 0; g_flows = 0 };
      now = 0.0;
    }
  in
  match backend with
  | None -> make ()
  | Some b -> Backend.get_store b ~name:"prads" ~id:state_id ~make

let service_of_port = function
  | 80 -> "http"
  | 443 -> "https"
  | 22 -> "ssh"
  | 53 -> "dns"
  | 25 -> "smtp"
  | p when p < 1024 -> "well-known"
  | _ -> "ephemeral"

(* A stand-in for passive OS fingerprinting: deterministic per host. *)
let os_of_host ip =
  match Ipaddr.to_int ip mod 4 with
  | 0 -> "linux"
  | 1 -> "windows"
  | 2 -> "macos"
  | _ -> "bsd"

let new_asset ip =
  {
    ip;
    os_guess = os_of_host ip;
    services = Service_map.empty;
    a_first_seen = 0.0;
    a_last_seen = 0.0;
  }

(* One probe per host and no allocation once the host is known. *)
let touch_asset t ip =
  let known = Store.Per_host.size t.assets in
  let a = Store.Per_host.find_or_add t.assets ip new_asset in
  if Store.Per_host.size t.assets > known then a.a_first_seen <- t.now;
  a.a_last_seen <- t.now;
  a

let process_packet t (p : Packet.t) =
  t.now <- Float.max t.now p.sent_at;
  t.globals.g_pkts <- t.globals.g_pkts + 1;
  t.globals.g_bytes <- t.globals.g_bytes + p.wire_size;
  let a = Pfa.arena t.conns in
  let known = Pfa.size t.conns in
  let i = Arena.index a (Pfa.insert t.conns p.key) in
  let b = Arena.slab a i and o = Arena.offset a i in
  (* A new row's payload is zero, so its counters start from 0 too. *)
  if Pfa.size t.conns > known then begin
    t.globals.g_flows <- t.globals.g_flows + 1;
    set_f64 b (o + off_first) t.now
  end;
  set_f64 b (o + off_last) t.now;
  set_int b (o + off_pkts) (get_int b (o + off_pkts) + 1);
  set_int b (o + off_bytes) (get_int b (o + off_bytes) + p.wire_size);
  let src_asset = touch_asset t p.key.Flow.src_ip in
  ignore (touch_asset t p.key.Flow.dst_ip);
  (* A reply from a server port reveals a service on the source host. *)
  if Packet.has_flag p Ack && p.key.Flow.src_port < 10000 then
    src_asset.services <-
      Service_map.add p.key.Flow.src_port
        (service_of_port p.key.Flow.src_port)
        src_asset.services

(* --- serialization ----------------------------------------------------- *)

(* The textual fingerprint hints PRADS records per connection; they make
   real PRADS state a couple hundred bytes per flow and are what makes
   compression worthwhile (§8.3). Derived from key fields only, so it is
   computed from the row at export time rather than stored. *)
let fingerprint_of ~proto_rank ~src ~dport =
  Printf.sprintf
    "match:tcp-syn[%s];os:%s;uptime:unknown;link:ethernet;distance:%d;service:%s"
    (match proto_rank with 0 -> "tcp" | 1 -> "udp" | _ -> "icmp")
    (os_of_host (Ipaddr.of_int src))
    (src mod 30)
    (service_of_port dport)

let conn_chunk t h =
  let a = Pfa.arena t.conns in
  let i = Arena.index a h in
  let b = Arena.slab a i and o = Arena.offset a i in
  Chunk.encode ~kind:"prads.conn" (fun w ->
      let open Bytes_io.Writer in
      let src = get_u32 b o in
      let proto_rank = Bytes.get_uint8 b (o + 8) in
      let dport = Bytes.get_uint16_le b (o + 11) in
      int w src;
      int w (get_u32 b (o + 4));
      u8 w proto_rank;
      u16 w (Bytes.get_uint16_le b (o + 9));
      u16 w dport;
      f64 w (get_f64 b (o + off_first));
      f64 w (get_f64 b (o + off_last));
      int w (get_int b (o + off_pkts));
      int w (get_int b (o + off_bytes));
      string w (fingerprint_of ~proto_rank ~src ~dport))

(* Import replaces the row wholesale (same semantics as the boxed
   [Store.Perflow.set] this used to be). *)
let import_conn t chunk =
  let r = Chunk.reader chunk in
  let open Bytes_io.Reader in
  let src = Ipaddr.of_int (int r) in
  let dst = Ipaddr.of_int (int r) in
  let proto =
    match u8 r with
    | 0 -> Flow.Tcp
    | 1 -> Flow.Udp
    | _ -> Flow.Icmp
  in
  let sport = u16 r in
  let dport = u16 r in
  let key = Flow.make ~src ~dst ~proto ~sport ~dport () in
  let first_seen = f64 r in
  let last_seen = f64 r in
  let pkts = int r in
  let bytes = int r in
  let _fingerprint = string r in
  let a = Pfa.arena t.conns in
  let i = Arena.index a (Pfa.insert t.conns key) in
  let b = Arena.slab a i and o = Arena.offset a i in
  set_f64 b (o + off_first) first_seen;
  set_f64 b (o + off_last) last_seen;
  set_int b (o + off_pkts) pkts;
  set_int b (o + off_bytes) bytes

let asset_chunk (a : asset) =
  Chunk.encode ~kind:"prads.asset" (fun w ->
      let open Bytes_io.Writer in
      int w (Ipaddr.to_int a.ip);
      string w a.os_guess;
      list w
        (fun (port, svc) ->
          u16 w port;
          string w svc)
        (Service_map.bindings a.services);
      f64 w a.a_first_seen;
      f64 w a.a_last_seen)

let asset_of_chunk chunk =
  let r = Chunk.reader chunk in
  let open Bytes_io.Reader in
  let ip = Ipaddr.of_int (int r) in
  let os_guess = string r in
  let services =
    List.fold_left
      (fun m (port, svc) -> Service_map.add port svc m)
      Service_map.empty
      (list r (fun () ->
           let port = u16 r in
           let svc = string r in
           (port, svc)))
  in
  let a_first_seen = f64 r in
  let a_last_seen = f64 r in
  { ip; os_guess; services; a_first_seen; a_last_seen }

(* --- southbound implementation ------------------------------------------ *)

let impl t =
  {
    Opennf_sb.Nf_api.kind = "prads";
    process_packet = process_packet t;
    list_perflow =
      (fun filter ->
        List.map (fun (k, _) -> Filter.of_key k) (Pfa.matching t.conns filter));
    export_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> None
        | Some key ->
          let h = Pfa.find t.conns key in
          if h = Arena.null then None else Some (conn_chunk t h));
    import_perflow = (fun _flowid chunk -> import_conn t chunk);
    delete_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> ()
        | Some key -> ignore (Pfa.remove t.conns key));
    list_multiflow =
      (fun filter ->
        List.map (fun (ip, _) -> Filter.of_src_host ip)
          (Store.Per_host.matching t.assets filter));
    export_multiflow =
      (fun flowid ->
        match Filter.exact_src_host flowid with
        | None -> None
        | Some ip -> Option.map asset_chunk (Store.Per_host.find t.assets ip));
    import_multiflow =
      (fun _flowid chunk ->
        let incoming = asset_of_chunk chunk in
        match Store.Per_host.find t.assets incoming.ip with
        | None -> Store.Per_host.set t.assets incoming.ip incoming
        | Some existing ->
          (* Merge: union services, earliest first-seen, latest last-seen. *)
          existing.services <-
            Service_map.union (fun _ a _ -> Some a) existing.services
              incoming.services;
          existing.a_first_seen <-
            Float.min existing.a_first_seen incoming.a_first_seen;
          existing.a_last_seen <-
            Float.max existing.a_last_seen incoming.a_last_seen);
    delete_multiflow =
      (fun flowid ->
        match Filter.exact_src_host flowid with
        | None -> ()
        | Some ip -> Store.Per_host.remove t.assets ip);
    export_allflows =
      (fun () ->
        [
          Chunk.encode ~kind:"prads.stats" (fun w ->
              let open Bytes_io.Writer in
              int w t.globals.g_pkts;
              int w t.globals.g_bytes;
              int w t.globals.g_flows);
        ]);
    import_allflows =
      (fun chunks ->
        List.iter
          (fun chunk ->
            let r = Chunk.reader chunk in
            let open Bytes_io.Reader in
            t.globals.g_pkts <- t.globals.g_pkts + int r;
            t.globals.g_bytes <- t.globals.g_bytes + int r;
            t.globals.g_flows <- t.globals.g_flows + int r)
          chunks);
  }

(* --- inspection ---------------------------------------------------------- *)

let connection_count t = Pfa.size t.conns
let asset_count t = Store.Per_host.size t.assets

let services_of t ip =
  match Store.Per_host.find t.assets ip with
  | None -> []
  | Some a -> Service_map.bindings a.services

let stats t = (t.globals.g_pkts, t.globals.g_bytes, t.globals.g_flows)

let last_seen t ip =
  Option.map (fun a -> a.a_last_seen) (Store.Per_host.find t.assets ip)
