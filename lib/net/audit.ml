module Engine = Opennf_sim.Engine
module Trace = Opennf_obs.Trace
module Monitor = Opennf_obs.Monitor

(* Record kinds, one byte per row; [kinds] maps each byte onto its
   {!Monitor.kind}, whose name is the row's mirror instant name. *)
let k_arrival = 0
let k_forward = 1
let k_nf_arrival = 2
let k_process = 3
let k_drop = 4
let k_event = 5
let k_buffer = 6

let kinds =
  Monitor.[| Arrival; Forward; Nf_arrival; Process; Drop; Event; Buffer |]

(* The ledger is a sequence of fixed-size row chunks — one [row_bytes]
   row per audit record, nothing boxed per row — so logging a packet
   event is a few byte stores. A chunk is a [Bytes] block, which the
   major GC never scans, and a full chunk is never copied: the next row
   opens a fresh one. The rows are the only storage: when the engine's
   hub is tracing, each row is also mirrored as a [cat:"audit"] trace
   instant (so the Chrome export and the timeline still show packets
   interleaved with op spans), but nothing reads the mirror back except
   [replay], which skips it. *)

(* Row layout: each field's byte offset in its row. *)
let o_kind = 0 (* u8 *)
let o_nf = 4 (* i32: interned instance name, see [names] *)
let o_pkt = 8 (* i64: packet id *)
let o_src = 16 (* u32 *)
let o_dst = 20 (* u32 *)
let o_ports = 24 (* i64: proto, sport, dport packed by [pack] *)
let o_vt = 32 (* f64 bits: virtual time *)
let row_bytes = 40
let chunk_bits = 12
let chunk_rows = 1 lsl chunk_bits
let chunk_mask = chunk_rows - 1

module Int_table = Opennf_util.Int_table

(* The packet ids that reached the switch: a flat set of ints by open
   addressing with linear probing, kept at most half full. A member is
   one int slot, so adding one allocates no cell and, the array being an
   [int array], pays no write barrier. [empty] marks a free slot; as a
   member it is the [has_empty] flag instead, so every int can be a
   member (preloaded packets carry negative ids). *)
module Id_set = struct
  let empty = min_int

  type t = {
    mutable slots : int array;  (** [1 lsl bits] slots. *)
    mutable bits : int;
    mutable count : int;  (** Members in [slots]. *)
    mutable has_empty : bool;
  }

  let create () =
    { slots = Array.make 1024 empty; bits = 10; count = 0; has_empty = false }

  (* An id's first slot: its low [bits] bits plus the [bits] above them.
     Consecutive ids, the common case, take consecutive slots, so a probe
     touches the cache lines the previous ids warmed (a multiplicative
     hash that scattered them read ~10% slower on a million-flow run);
     negative ids start from the top of the table, and ids equal modulo
     the table size start apart. *)
  let[@inline] home id bits = (id + (id asr bits)) land ((1 lsl bits) - 1)

  (* The slot holding [id], or the free slot that ends its probe run. *)
  let rec slot slots id i =
    let v = slots.(i) in
    if v = id || v = empty then i
    else slot slots id ((i + 1) land (Array.length slots - 1))

  let grow t =
    let bits = t.bits + 1 in
    let slots = Array.make (1 lsl bits) empty in
    for j = 0 to Array.length t.slots - 1 do
      let id = t.slots.(j) in
      if id <> empty then slots.(slot slots id (home id bits)) <- id
    done;
    t.slots <- slots;
    t.bits <- bits

  (* Adds [id]; false if it was already a member. *)
  let add t id =
    if id = empty then begin
      let fresh = not t.has_empty in
      t.has_empty <- true;
      fresh
    end
    else begin
      let i = slot t.slots id (home id t.bits) in
      if t.slots.(i) = id then false
      else begin
        t.slots.(i) <- id;
        t.count <- t.count + 1;
        if 2 * t.count > Array.length t.slots then grow t;
        true
      end
    end
end

type subscriber =
  Monitor.kind ->
  pkt:int ->
  nf:string ->
  src:int ->
  dst:int ->
  proto:int ->
  sport:int ->
  dport:int ->
  vt:float ->
  unit

type t = {
  engine : Engine.t;
  hub : Trace.t;  (** The hub trace ({!Trace.disabled} when not tracing). *)
  mutable len : int;
  mutable chunks : Bytes.t array;  (** Row [i] is in chunk [i lsr chunk_bits]. *)
  mutable hub_pos : int array;
      (** Each row's mirror position in [hub]; empty when not tracing. *)
  names : (string, int) Hashtbl.t;
  mutable nf_names : string array;
  mutable last_nf : string;  (** One-entry intern cache (physical). *)
  mutable last_nf_id : int;
  mutable sw_id : int;
      (** The switch's interned id, -1 before its first row; kept apart
          so switch rows never evict the instance in [last_nf]. *)
  arrived : Id_set.t;
  mutable subs : subscriber array;
  (* First-time indexes, read only by post-run queries: built from the
     rows on demand, [indexed] rows so far. *)
  first_arrival : float Int_table.t;
  first_process : float Int_table.t;
  mutable indexed : int;
}

let create engine =
  let hub = Opennf_obs.Hub.trace (Engine.obs engine) in
  {
    engine;
    hub;
    len = 0;
    chunks = [||];
    hub_pos = (if Trace.enabled hub then Array.make 1024 0 else [||]);
    names = Hashtbl.create 16;
    nf_names = Array.make 16 "";
    last_nf = "";
    last_nf_id = -1;
    sw_id = -1;
    arrived = Id_set.create ();
    subs = [||];
    first_arrival = Int_table.create 16;
    first_process = Int_table.create 16;
    indexed = 0;
  }

(* --- rows ------------------------------------------------------------------ *)

(* Open the chunk for row [t.len]; only the small chunk index is ever
   copied. *)
let add_chunk t =
  let c = t.len lsr chunk_bits in
  if c = Array.length t.chunks then begin
    let a = Array.make (Stdlib.max 4 (2 * c)) Bytes.empty in
    Array.blit t.chunks 0 a 0 c;
    t.chunks <- a
  end;
  t.chunks.(c) <- Bytes.create (chunk_rows * row_bytes)

let intern t nf =
  if nf == t.last_nf then t.last_nf_id
  else begin
    let id =
      match Hashtbl.find t.names nf with
      | id -> id
      | exception Not_found ->
        let id = Hashtbl.length t.names in
        if id = Array.length t.nf_names then begin
          let a = Array.make (2 * id) "" in
          Array.blit t.nf_names 0 a 0 id;
          t.nf_names <- a
        end;
        t.nf_names.(id) <- nf;
        Hashtbl.add t.names nf id;
        id
    in
    t.last_nf <- nf;
    t.last_nf_id <- id;
    id
  end

(* Standard IP protocol numbers, so traces read like packet captures. *)
let proto_code = function Flow.Tcp -> 6 | Flow.Udp -> 17 | Flow.Icmp -> 1
let proto_of_code = function 17 -> Flow.Udp | 1 -> Flow.Icmp | _ -> Flow.Tcp

(* Ports get 28 bits each (real ones need 16), the protocol code 5. *)
let pack (k : Flow.key) =
  (proto_code k.Flow.proto lsl 56) lor (k.Flow.src_port lsl 28) lor k.Flow.dst_port

(* Row [i] starts at [at i 0] in [chunk t i]. *)
let[@inline] chunk t i = t.chunks.(i lsr chunk_bits)
let[@inline] at i o = ((i land chunk_mask) * row_bytes) + o
let int_at t i o = Int64.to_int (Bytes.get_int64_le (chunk t i) (at i o))

let u32_at t i o =
  Int32.to_int (Bytes.get_int32_le (chunk t i) (at i o)) land 0xFFFFFFFF

let kind_at t i = Bytes.get_uint8 (chunk t i) (at i o_kind)
let nf_id_at t i = Int32.to_int (Bytes.get_int32_le (chunk t i) (at i o_nf))
let nf_at t i = t.nf_names.(nf_id_at t i)
let pkt_at t i = int_at t i o_pkt
let src_at t i = u32_at t i o_src
let dst_at t i = u32_at t i o_dst
let proto_at t i = int_at t i o_ports lsr 56
let sport_at t i = (int_at t i o_ports lsr 28) land 0xFFFFFFF
let dport_at t i = int_at t i o_ports land 0xFFFFFFF
let vt_at t i = Int64.float_of_bits (Bytes.get_int64_le (chunk t i) (at i o_vt))

let key_at t i =
  Flow.make
    ~src:(Ipaddr.of_int (src_at t i))
    ~dst:(Ipaddr.of_int (dst_at t i))
    ~proto:(proto_of_code (proto_at t i))
    ~sport:(sport_at t i) ~dport:(dport_at t i) ()

(* Row [i] handed to [f] as typed fields: the one way rows reach a
   subscriber, live or replayed. *)
let deliver t (f : subscriber) i =
  f kinds.(kind_at t i) ~pkt:(pkt_at t i) ~nf:(nf_at t i) ~src:(src_at t i)
    ~dst:(dst_at t i) ~proto:(proto_at t i) ~sport:(sport_at t i)
    ~dport:(dport_at t i) ~vt:(vt_at t i)

(* The hub mirror of row [i]: an instant named after the row's kind,
   with positional attributes (pkt, nf, src, dst, proto, sport, dport)
   that the Chrome export and the timeline print. *)
let mirror t i =
  if i = Array.length t.hub_pos then begin
    let a = Array.make (2 * i) 0 in
    Array.blit t.hub_pos 0 a 0 i;
    t.hub_pos <- a
  end;
  t.hub_pos.(i) <- Trace.length t.hub;
  Trace.instant t.hub ~cat:"audit"
    ~name:(Monitor.kind_name kinds.(kind_at t i))
    ~attrs:
      [|
        ("pkt", Trace.Int (pkt_at t i));
        ("nf", Trace.Str (nf_at t i));
        ("src", Trace.Int (src_at t i));
        ("dst", Trace.Int (dst_at t i));
        ("proto", Trace.Int (proto_at t i));
        ("sport", Trace.Int (sport_at t i));
        ("dport", Trace.Int (dport_at t i));
      |]
    ()

(* Logging appends one row, mirrors it when the hub is tracing, and
   hands it to each subscriber. *)
let log_id t kind (p : Packet.t) nf_id =
  if t.len land chunk_mask = 0 then add_chunk t;
  let i = t.len in
  let k = p.Packet.key in
  let b = chunk t i and r = at i 0 in
  Bytes.set_uint8 b (r + o_kind) kind;
  Bytes.set_int32_le b (r + o_nf) (Int32.of_int nf_id);
  Bytes.set_int64_le b (r + o_pkt) (Int64.of_int p.Packet.id);
  Bytes.set_int32_le b (r + o_src) (Int32.of_int (Ipaddr.to_int k.Flow.src_ip));
  Bytes.set_int32_le b (r + o_dst) (Int32.of_int (Ipaddr.to_int k.Flow.dst_ip));
  Bytes.set_int64_le b (r + o_ports) (Int64.of_int (pack k));
  Bytes.set_int64_le b (r + o_vt) (Int64.bits_of_float (Engine.now t.engine));
  t.len <- i + 1;
  if Trace.enabled t.hub then mirror t i;
  for s = 0 to Array.length t.subs - 1 do
    deliver t t.subs.(s) i
  done

let log t kind p nf = log_id t kind p (intern t nf)

let log_switch_arrival t p =
  if Id_set.add t.arrived p.Packet.id then begin
    if t.sw_id < 0 then t.sw_id <- intern t "sw";
    log_id t k_arrival p t.sw_id
  end

let log_forward t p ~dst = log t k_forward p dst
let log_nf_arrival t p ~nf = log t k_nf_arrival p nf
let log_process t p ~nf = log t k_process p nf
let log_drop t p ~nf = log t k_drop p nf
let log_evented t p ~nf = log t k_event p nf
let log_buffered t p ~nf = log t k_buffer p nf

(* --- row streams ------------------------------------------------------------ *)

let subscribe t f = t.subs <- Array.append t.subs [| f |]

(* Every row in order; with hub tracing, the hub's other events (op
   spans, phase marks) at their emission positions. Audit instants of
   the hub that are not this ledger's mirrors (another ledger sharing
   the hub) are skipped. *)
let replay t ~row ~hub =
  if not (Trace.enabled t.hub) then
    for i = 0 to t.len - 1 do
      deliver t row i
    done
  else begin
    let next = ref 0 in
    for j = 0 to Trace.length t.hub - 1 do
      if !next < t.len && t.hub_pos.(!next) = j then begin
        deliver t row !next;
        incr next
      end
      else
        let ev = Trace.nth t.hub j in
        if not (ev.Trace.kind = Trace.Instant && ev.Trace.cat = "audit") then
          hub ev
    done
  end

(* --- queries ------------------------------------------------------------------- *)

let ensure_indexes t =
  for i = t.indexed to t.len - 1 do
    let tbl =
      match kind_at t i with
      | k when k = k_nf_arrival -> Some t.first_arrival
      | k when k = k_process -> Some t.first_process
      | _ -> None
    in
    match tbl with
    | Some tbl when not (Int_table.mem tbl (pkt_at t i)) ->
      Int_table.add tbl (pkt_at t i) (vt_at t i)
    | _ -> ()
  done;
  t.indexed <- t.len

(* Row predicates. A missing instance name matches no row. *)
let in_filter filter t i =
  match filter with None -> true | Some f -> Filter.matches_flow f (key_at t i)

let by_nf nf t =
  match nf with
  | None -> fun _ -> true
  | Some n -> (
    match Hashtbl.find_opt t.names n with
    | None -> fun _ -> false
    | Some id -> fun i -> nf_id_at t i = id)

(* Packet ids of the rows of [kind] that satisfy [keep], in row order. *)
let ids t kind keep =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if kind_at t i = kind && keep i then acc := pkt_at t i :: !acc
  done;
  !acc

(* First occurrences only, in row order. *)
let first_ids t kind keep =
  let seen = Int_table.create 64 in
  List.filter
    (fun id ->
      if Int_table.mem seen id then false
      else begin
        Int_table.add seen id ();
        true
      end)
    (ids t kind keep)

let forwarded_order ?filter t = first_ids t k_forward (in_filter filter t)

let processed_order ?filter ?nf t =
  let by_nf = by_nf nf t in
  ids t k_process (fun i -> by_nf i && in_filter filter t i)

let processed_count ?nf t = List.length (ids t k_process (by_nf nf t))

let lost ?filter t ~nfs =
  let ids_of_nfs = List.filter_map (Hashtbl.find_opt t.names) nfs in
  let in_nfs i = List.mem (nf_id_at t i) ids_of_nfs in
  let processed = Int_table.create 1024 in
  List.iter
    (fun id -> Int_table.replace processed id ())
    (ids t k_process in_nfs);
  first_ids t k_forward (fun i -> in_filter filter t i && in_nfs i)
  |> List.filter (fun id -> not (Int_table.mem processed id))

let duplicated ?filter t =
  let counts = Hashtbl.create 1024 in
  List.iter
    (fun id ->
      Hashtbl.replace counts id
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts id)))
    (ids t k_process (in_filter filter t));
  Hashtbl.fold (fun id n acc -> if n > 1 then id :: acc else acc) counts []

let violations_against t reference_order ?filter () =
  let pos = Int_table.create 1024 in
  List.iteri (fun i id -> Int_table.replace pos id i) reference_order;
  let proc =
    List.filter (fun id -> Int_table.mem pos id) (processed_order ?filter t)
  in
  (* A violation is an inversion between the reference position and the
     processing position. Report adjacent-in-processing inversions, which
     is enough to witness any reordering. *)
  let rec scan acc = function
    | a :: (b :: _ as rest) ->
      let pa = Int_table.find pos a and pb = Int_table.find pos b in
      let acc = if pa > pb then (b, a) :: acc else acc in
      scan acc rest
    | [ _ ] | [] -> List.rev acc
  in
  scan [] proc

let order_violations ?filter t =
  violations_against t (forwarded_order ?filter t) ?filter ()

let arrival_order_violations ?filter t =
  violations_against t (ids t k_arrival (in_filter filter t)) ?filter ()

let added_latency t ~pkt =
  ensure_indexes t;
  match
    ( Int_table.find_opt t.first_arrival pkt,
      Int_table.find_opt t.first_process pkt )
  with
  | Some arrival, Some proc -> Some (proc -. arrival)
  | _ -> None

let evented_ids ?nf t = ids t k_event (by_nf nf t)
let buffered_ids ?nf t = ids t k_buffer (by_nf nf t)

let process_time t ~pkt =
  ensure_indexes t;
  Int_table.find_opt t.first_process pkt
