module Bytes_io = Opennf_util.Bytes_io
module Arena = Opennf_util.Arena
module Pfa = Opennf_state.Store.Perflow_arena
open Opennf_net
open Opennf_state

type tcp_state = New | Established | Fin_wait | Closed

(* Conntrack entries are arena rows, not records: the key lives at the
   row head (owned by {!Store.Perflow_arena}) and the NF's fields sit in
   the payload. State codes match the chunk encoding, so export is a
   field-for-field copy with no intermediate boxing. *)
let off_state = Pfa.payload_off (* u8: 0=New 1=Established 2=Fin_wait 3=Closed *)
let off_tport = Pfa.payload_off + 1 (* u16 *)
let off_pkts = Pfa.payload_off + 3 (* int *)
let payload_bytes = 11

let state_to_code = function
  | New -> 0
  | Established -> 1
  | Fin_wait -> 2
  | Closed -> 3

let state_of_code = function
  | 0 -> New
  | 1 -> Established
  | 2 -> Fin_wait
  | _ -> Closed

type t = {
  table : Pfa.t;
  port_base : int;
  port_limit : int;
  (* ports.(p - port_base) = handle of the entry holding external port
     [p], or [Arena.null]. Stale handles (entry freed behind our back)
     are treated as free. *)
  ports : Arena.handle array;
  mutable next_port : int; (* scan cursor within [port_base, port_limit] *)
  (* True after a full scan found every slot backing a live, unclosed
     flow. Nothing can become claimable until a slot is released or some
     entry reaches Closed, so allocation fails O(1) until then — under
     SYN floods past capacity the allocator would otherwise rescan the
     whole range per dropped packet. *)
  mutable full : bool;
  mutable invalid : int;
  mutable exhausted : int;
}

(* One witness per NF module: instances constructed over the same
   backend registry share the whole state record (conntrack table, port
   slots, allocation cursor) — the FlexState externalization. *)
let state_id : t Type.Id.t = Type.Id.make ()

let create ?backend ?(port_base = 20000) ?(port_limit = 65535) () =
  if port_base < 1 || port_limit > 65535 || port_base > port_limit then
    invalid_arg "Nat.create: need 1 <= port_base <= port_limit <= 65535";
  let make () =
    {
      table = Pfa.create ~payload:payload_bytes ();
      port_base;
      port_limit;
      ports = Array.make (port_limit - port_base + 1) Arena.null;
      next_port = port_base;
      full = false;
      invalid = 0;
      exhausted = 0;
    }
  in
  match backend with
  | None -> make ()
  | Some b -> Backend.get_store b ~name:"nat" ~id:state_id ~make

let arena t = Pfa.arena t.table

(* Release [port]'s slot if [h] still owns it (an import may have
   handed the slot to another entry in the meantime). *)
let release_port t h port =
  if port >= t.port_base && port <= t.port_limit then begin
    let i = port - t.port_base in
    if t.ports.(i) = h then begin
      t.ports.(i) <- Arena.null;
      t.full <- false
    end
  end

let remove_entry t h =
  release_port t h (Arena.get_u16 (arena t) h off_tport);
  ignore (Pfa.remove t.table (Pfa.key_of t.table h))

(* Allocate an external port: scan from the cursor, wrapping within
   [port_base, port_limit]. A slot is claimable when it is empty, its
   handle went stale, or its owner has reached Closed — in the last
   case the dead conntrack entry is evicted, which is how closed flows
   recycle their ports. Returns -1 when every port backs a live,
   unclosed flow. *)
let alloc_port t =
  if t.full then -1
  else begin
    let range = t.port_limit - t.port_base + 1 in
    let a = arena t in
    let result = ref (-1) in
    let tries = ref 0 in
    while !result = -1 && !tries < range do
      let port = t.next_port in
      t.next_port <- (if port = t.port_limit then t.port_base else port + 1);
      incr tries;
      let i = port - t.port_base in
      let h = t.ports.(i) in
      if h = Arena.null || not (Arena.is_live a h) then begin
        t.ports.(i) <- Arena.null;
        result := port
      end
      else if Arena.get_u8 a h off_state = state_to_code Closed then begin
        remove_entry t h;
        result := port
      end
    done;
    (* A failed scan wraps the cursor back to its start and frees
       nothing, so remembering the exhaustion is observationally free. *)
    if !result = -1 then t.full <- true;
    !result
  end

let advance_state t h (p : Packet.t) =
  let a = arena t in
  Arena.set_int a h off_pkts (Arena.get_int a h off_pkts + 1);
  let close () =
    Arena.set_u8 a h off_state 3;
    (* This entry's port is now reclaimable. *)
    t.full <- false
  in
  if Packet.has_flag p Rst then close ()
  else
    match state_of_code (Arena.get_u8 a h off_state) with
    | New -> if Packet.has_flag p Ack then Arena.set_u8 a h off_state 1
    | Established -> if Packet.has_flag p Fin then Arena.set_u8 a h off_state 2
    | Fin_wait -> if Packet.has_flag p Ack then close ()
    | Closed -> ()

let process_packet t (p : Packet.t) =
  let h = Pfa.find t.table p.key in
  if h <> Arena.null then advance_state t h p
  else if Packet.is_syn p then begin
    let port = alloc_port t in
    if port = -1 then begin
      (* Port range exhausted by live flows: no entry, drop as invalid. *)
      t.exhausted <- t.exhausted + 1;
      t.invalid <- t.invalid + 1
    end
    else begin
      let a = arena t in
      let h = Pfa.insert t.table p.key in
      Arena.set_u8 a h off_state (state_to_code New);
      Arena.set_u16 a h off_tport port;
      Arena.set_int a h off_pkts 1;
      t.ports.(port - t.port_base) <- h
    end
  end
  else t.invalid <- t.invalid + 1

(* --- serialization ------------------------------------------------------ *)

(* Wire format unchanged from the record-based implementation: src, dst,
   proto, ports, state, translated port, packet count — read straight
   from the row bytes into the writer's scratch. *)
let entry_chunk t h =
  let a = arena t in
  Chunk.encode ~kind:"nat.conntrack" (fun w ->
      let open Bytes_io.Writer in
      int w (Arena.get_u32 a h 0);
      int w (Arena.get_u32 a h 4);
      u8 w (Arena.get_u8 a h 8);
      u16 w (Arena.get_u16 a h 9);
      u16 w (Arena.get_u16 a h 11);
      u8 w (Arena.get_u8 a h off_state);
      u16 w (Arena.get_u16 a h off_tport);
      int w (Arena.get_int a h off_pkts))

(* Claim [port] for [h] on import if the slot is free or stale; a live
   competing owner keeps it (the allocator skips contested slots, so a
   duplicate translated port degrades capacity, never correctness). *)
let claim_port t h port =
  if port >= t.port_base && port <= t.port_limit then begin
    let i = port - t.port_base in
    let owner = t.ports.(i) in
    if owner = Arena.null || owner = h || not (Arena.is_live (arena t) owner)
    then t.ports.(i) <- h
  end

let import_chunk t chunk =
  let r = Chunk.reader chunk in
  let open Bytes_io.Reader in
  let src = Ipaddr.of_int (int r) in
  let dst = Ipaddr.of_int (int r) in
  let proto = match u8 r with 0 -> Flow.Tcp | 1 -> Flow.Udp | _ -> Flow.Icmp in
  let sport = u16 r in
  let dport = u16 r in
  let key = Flow.make ~src ~dst ~proto ~sport ~dport () in
  let state = u8 r in
  let tport = u16 r in
  let pkts = int r in
  let a = arena t in
  let h = Pfa.insert t.table key in
  (* Overwrite semantics: an existing entry for the key is replaced,
     releasing whatever port it held before. *)
  let old_tport = Arena.get_u16 a h off_tport in
  if old_tport <> tport then release_port t h old_tport;
  Arena.set_u8 a h off_state state;
  Arena.set_u16 a h off_tport tport;
  Arena.set_int a h off_pkts pkts;
  if state = state_to_code Closed then t.full <- false;
  claim_port t h tport

(* --- southbound implementation ------------------------------------------ *)

let impl t =
  {
    Opennf_sb.Nf_api.kind = "iptables";
    process_packet = process_packet t;
    list_perflow =
      (fun filter ->
        List.map (fun (k, _) -> Filter.of_key k) (Pfa.matching t.table filter));
    export_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> None
        | Some key ->
          let h = Pfa.find t.table key in
          if h = Arena.null then None else Some (entry_chunk t h));
    import_perflow = (fun _flowid chunk -> import_chunk t chunk);
    delete_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> ()
        | Some key ->
          let h = Pfa.find t.table key in
          if h <> Arena.null then remove_entry t h);
    (* iptables has no multi- or all-flows state (§7). *)
    list_multiflow = (fun _ -> []);
    export_multiflow = (fun _ -> None);
    import_multiflow = (fun _ _ -> ());
    delete_multiflow = (fun _ -> ());
    export_allflows = (fun () -> []);
    import_allflows = (fun _ -> ());
  }

(* --- inspection ----------------------------------------------------------- *)

let entry_count t = Pfa.size t.table
let invalid_count t = t.invalid
let exhausted_count t = t.exhausted

let state_of t key =
  let h = Pfa.find t.table key in
  if h = Arena.null then None
  else Some (state_of_code (Arena.get_u8 (arena t) h off_state))

let translation_of t key =
  let h = Pfa.find t.table key in
  if h = Arena.null then None else Some (Arena.get_u16 (arena t) h off_tport)
