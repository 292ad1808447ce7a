module Hashing = Opennf_util.Hashing
module Bytes_io = Opennf_util.Bytes_io
open Opennf_net
open Opennf_state

let chunk_bytes = 65536
(* Bytes of object data delivered per continuation packet. *)

let object_size url =
  (* Deterministic in [512 KiB, ~2.25 MiB): 40 URLs total ≈ 55 MB, the
     size of the paper's full cache. *)
  let h = Int64.to_int (Hashing.fnv1a64 url) land max_int in
  (512 * 1024) + (h mod (1792 * 1024))

(* Payload of a client-side transfer continuation ("give me the next
   chunk"); a request is ["GET <url>"]. *)
let continuation_payload = "CONT"

module Ip_set = Set.Make (Ipaddr)

type entry = {
  url : string;
  size : int;
  mutable refs : Ip_set.t;  (* Clients actively served from this entry. *)
  mutable entry_hits : int;
}

type conn = {
  key : Flow.key;
  client : Ipaddr.t;
  mutable serving : (string * int) option;  (* url, offset *)
  mutable requests : int;
}

type t = {
  conns : conn Store.Perflow.t;
  cache : (string, entry) Store.Keyed.t;
  mutable hits : int;
  mutable misses : int;
  mutable crashed : bool;
}

(* A cache entry is relevant to a filter when the filter names its URL,
   constrains an address one of its active readers matches, or has no
   address/app constraints at all. *)
let entry_relevant (filter : Filter.t) _url entry =
  match filter.Filter.app with
  | Some url -> String.equal url entry.url
  | None -> (
    match (filter.Filter.src, filter.Filter.dst) with
    | None, None -> true
    | _ -> Ip_set.exists (fun ip -> Filter.matches_host filter ip) entry.refs)

let create () =
  {
    conns = Store.Perflow.create ();
    cache = Store.Keyed.create ~relevant:entry_relevant ();
    hits = 0;
    misses = 0;
    crashed = false;
  }

let finish_transfer t conn url =
  conn.serving <- None;
  match Store.Keyed.find t.cache url with
  | None -> ()
  | Some entry -> entry.refs <- Ip_set.remove conn.client entry.refs

let start_transfer t conn url =
  let entry =
    match Store.Keyed.find t.cache url with
    | Some entry ->
      t.hits <- t.hits + 1;
      entry.entry_hits <- entry.entry_hits + 1;
      entry
    | None ->
      (* Miss: fetch from the origin and cache. *)
      t.misses <- t.misses + 1;
      let entry =
        { url; size = object_size url; refs = Ip_set.empty; entry_hits = 0 }
      in
      Store.Keyed.set t.cache url entry;
      entry
  in
  entry.refs <- Ip_set.add conn.client entry.refs;
  conn.serving <- Some (url, 0)

let advance_transfer t conn =
  match conn.serving with
  | None -> ()
  | Some (url, offset) -> (
    match Store.Keyed.find t.cache url with
    | None ->
      (* Serving state references an object this instance does not have:
         unrecoverable (Table 1, "ignore"). *)
      t.crashed <- true
    | Some entry ->
      let offset = offset + chunk_bytes in
      if offset >= entry.size then finish_transfer t conn url
      else conn.serving <- Some (url, offset))

let process_packet t (p : Packet.t) =
  if not t.crashed then begin
    let conn =
      match Store.Perflow.find t.conns p.key with
      | Some c -> c
      | None ->
        let c =
          {
            key = Flow.canonical p.key;
            client = p.key.Flow.src_ip;
            serving = None;
            requests = 0;
          }
        in
        Store.Perflow.set t.conns p.key c;
        c
    in
    if Ipaddr.equal p.key.Flow.src_ip conn.client then
      if String.length p.payload >= 4 && String.sub p.payload 0 4 = "GET " then begin
        conn.requests <- conn.requests + 1;
        let url = String.sub p.payload 4 (String.length p.payload - 4) in
        (match conn.serving with
        | Some (current, _) -> finish_transfer t conn current
        | None -> ());
        start_transfer t conn url
      end
      else if String.equal p.payload continuation_payload then
        advance_transfer t conn
  end

(* --- serialization ------------------------------------------------------ *)

let conn_chunk (c : conn) =
  Chunk.encode ~kind:"squid.conn" (fun w ->
      let open Bytes_io.Writer in
      int w (Ipaddr.to_int c.key.Flow.src_ip);
      int w (Ipaddr.to_int c.key.Flow.dst_ip);
      u16 w c.key.Flow.src_port;
      u16 w c.key.Flow.dst_port;
      int w (Ipaddr.to_int c.client);
      int w c.requests;
      match c.serving with
      | None -> bool w false
      | Some (url, offset) ->
        bool w true;
        string w url;
        int w offset)

let conn_of_chunk chunk =
  let r = Chunk.reader chunk in
  let open Bytes_io.Reader in
  let src = Ipaddr.of_int (int r) in
  let dst = Ipaddr.of_int (int r) in
  let sport = u16 r in
  let dport = u16 r in
  let key = Flow.make ~src ~dst ~proto:Flow.Tcp ~sport ~dport () in
  let client = Ipaddr.of_int (int r) in
  let requests = int r in
  let serving =
    if bool r then begin
      let url = string r in
      let offset = int r in
      Some (url, offset)
    end
    else None
  in
  { key; client; serving; requests }

(* Cache-entry chunks carry the full object content, so transfer sizes in
   Table 1 are real. The content itself is synthetic filler. *)
let entry_chunk (e : entry) =
  Chunk.encode ~kind:"squid.entry" (fun w ->
      let open Bytes_io.Writer in
      string w e.url;
      int w e.size;
      int w e.entry_hits;
      list w (fun ip -> int w (Ipaddr.to_int ip)) (Ip_set.elements e.refs);
      string w (String.make e.size 'x'))

let entry_of_chunk chunk =
  let r = Chunk.reader chunk in
  let open Bytes_io.Reader in
  let url = string r in
  let size = int r in
  let entry_hits = int r in
  let refs = Ip_set.of_list (List.map Ipaddr.of_int (list r (fun () -> int r))) in
  ignore (string r);
  { url; size; refs; entry_hits }

(* --- southbound implementation ------------------------------------------ *)

let impl t =
  {
    Opennf_sb.Nf_api.kind = "squid";
    process_packet = process_packet t;
    list_perflow =
      (fun filter ->
        List.map (fun (k, _) -> Filter.of_key k)
          (Store.Perflow.matching t.conns filter));
    export_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> None
        | Some key -> Option.map conn_chunk (Store.Perflow.find t.conns key));
    import_perflow =
      (fun _flowid chunk ->
        let c = conn_of_chunk chunk in
        Store.Perflow.set t.conns c.key c);
    delete_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> ()
        | Some key -> Store.Perflow.remove t.conns key);
    list_multiflow =
      (fun filter ->
        List.map (fun (url, _) -> Filter.of_app url)
          (Store.Keyed.matching t.cache filter));
    export_multiflow =
      (fun flowid ->
        match flowid.Filter.app with
        | None -> None
        | Some url -> Option.map entry_chunk (Store.Keyed.find t.cache url));
    import_multiflow =
      (fun _flowid chunk ->
        let incoming = entry_of_chunk chunk in
        match Store.Keyed.find t.cache incoming.url with
        | None -> Store.Keyed.set t.cache incoming.url incoming
        | Some existing ->
          existing.refs <- Ip_set.union existing.refs incoming.refs;
          existing.entry_hits <- existing.entry_hits + incoming.entry_hits);
    delete_multiflow =
      (fun flowid ->
        match flowid.Filter.app with
        | None -> ()
        | Some url -> Store.Keyed.remove t.cache url);
    export_allflows = (fun () -> []);
    import_allflows = (fun _ -> ());
  }

(* --- inspection ----------------------------------------------------------- *)

let hits t = t.hits
let misses t = t.misses
let crashed t = t.crashed
let cache_size t = Store.Keyed.size t.cache

let in_progress t =
  Store.Perflow.fold t.conns ~init:0 ~f:(fun _ c acc ->
      if Option.is_some c.serving then acc + 1 else acc)
