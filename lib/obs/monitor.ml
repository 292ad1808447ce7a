(* Streaming checker for the §5.1 guarantees, fed typed audit rows.

   The audit ledger hands every row to [row] as plain ints (the monitor
   lives below lib/net in the dependency order, so it never sees a
   [Flow.key]); op spans and phase marks reach [op_event] from the hub
   trace and give findings their op/phase context. Per-row work is
   table lookups and array stores: flow strings and history lines are
   rendered only when a finding is built. *)

type kind = Arrival | Forward | Nf_arrival | Process | Drop | Event | Buffer

let kind_name = function
  | Arrival -> "arrival"
  | Forward -> "forward"
  | Nf_arrival -> "nf_arrival"
  | Process -> "process"
  | Drop -> "drop"
  | Event -> "event"
  | Buffer -> "buffer"

type property = Loss | Order | Duplicate | Buffer_conservation

let property_name = function
  | Loss -> "loss"
  | Order -> "order"
  | Duplicate -> "duplicate"
  | Buffer_conservation -> "buffer"

type finding = {
  property : property;
  flow : string;
  pkt : int;
  shard : int;
  vt : float;
  op_span : int;
  op : string;
  phase : string;
  detail : string;
  history : string list;
}

module Int_table = Opennf_util.Int_table

(* Per-flow history ring size. *)
let history = 8

(* Per-flow automaton, keyed by the packet's directed 5-tuple: two
   counters (forward sequence numbering and the highest
   forwarded-sequence processed so far) plus a ring of the flow's last
   [history] rows, one flat array per field — O(1) state however long
   the flow lives. *)
type flow_state = {
  src : int;
  dst : int;
  proto : int;
  sport : int;
  dport : int;
  mutable next_fwd : int;
  mutable max_done : int;
  h_vt : float array;
  h_kind : kind array;
  h_pkt : int array;
  h_nf : string array;
  mutable h_len : int;
  mutable h_pos : int;
}

(* Per-packet lifecycle, cleared down to a processed-marker once the
   packet completes (the marker is what duplicate-freedom needs). *)
type pkt_state = {
  p_flow : flow_state;
  mutable p_seq : int;  (* First-forward sequence within the flow; -1. *)
  mutable p_forwarded : bool;
  mutable p_buffered : bool;
  mutable p_processed : bool;
  mutable p_nf : string;  (* Instance of the last row. *)
  mutable p_vt : float;
  mutable p_shard : int;
  mutable p_op : int;
  mutable p_op_name : string;
  mutable p_phase : string;
}

(* An open root op span and the last phase mark under it. *)
type op_info = {
  o_span : int;
  o_name : string;
  o_shard : int;
  mutable o_phase : string;
}

type t = {
  flows : flow_state list Int_table.t;  (* By [flow_hash]; lists resolve collisions. *)
  pkts : pkt_state Int_table.t;
  roots : op_info Int_table.t;  (* Open root op spans, by span id. *)
  children : op_info Int_table.t;  (* Open child span -> its root. *)
  mutable open_roots : op_info list;  (* Newest first. *)
  mutable streamed : finding list;  (* Newest first. *)
}

let create () =
  {
    flows = Int_table.create 256;
    pkts = Int_table.create 1024;
    roots = Int_table.create 16;
    children = Int_table.create 16;
    open_roots = [];
    streamed = [];
  }

let findings t = List.rev t.streamed
let clean = function [] -> true | _ :: _ -> false

(* --- rendering a flow and its history --------------------------------------- *)

let ip_str v =
  Printf.sprintf "%d.%d.%d.%d"
    ((v lsr 24) land 0xff)
    ((v lsr 16) land 0xff)
    ((v lsr 8) land 0xff)
    (v land 0xff)

let proto_str = function 17 -> "udp" | 1 -> "icmp" | _ -> "tcp"

let flow_string fs =
  Printf.sprintf "%s:%d->%s:%d/%s" (ip_str fs.src) fs.sport (ip_str fs.dst)
    fs.dport (proto_str fs.proto)

let history_lines fs =
  List.init fs.h_len (fun i ->
      let j = (fs.h_pos - fs.h_len + i + history) mod history in
      Printf.sprintf "%.6f %s pkt=%d nf=%s" fs.h_vt.(j)
        (kind_name fs.h_kind.(j))
        fs.h_pkt.(j) fs.h_nf.(j))

(* --- per-flow / per-packet state ------------------------------------------ *)

let mix h x = (h lxor x) * 0x100000001b3

let flow_hash ~src ~dst ~proto ~sport ~dport =
  let h = mix (mix (mix (mix (mix 0 src) dst) proto) sport) dport in
  h lxor (h lsr 29)

let rec find_flow ~src ~dst ~proto ~sport ~dport = function
  | [] -> raise Not_found
  | fs :: rest ->
    if
      fs.src = src && fs.dst = dst && fs.proto = proto && fs.sport = sport
      && fs.dport = dport
    then fs
    else find_flow ~src ~dst ~proto ~sport ~dport rest

let flow_state t ~src ~dst ~proto ~sport ~dport =
  let h = flow_hash ~src ~dst ~proto ~sport ~dport in
  let bucket =
    match Int_table.find t.flows h with b -> b | exception Not_found -> []
  in
  match find_flow ~src ~dst ~proto ~sport ~dport bucket with
  | fs -> fs
  | exception Not_found ->
    let fs =
      {
        src;
        dst;
        proto;
        sport;
        dport;
        next_fwd = 0;
        max_done = -1;
        h_vt = Array.make history 0.0;
        h_kind = Array.make history Arrival;
        h_pkt = Array.make history 0;
        h_nf = Array.make history "";
        h_len = 0;
        h_pos = 0;
      }
    in
    Int_table.replace t.flows h (fs :: bucket);
    fs

let push fs kind ~pkt ~nf ~vt =
  let i = fs.h_pos in
  fs.h_vt.(i) <- vt;
  fs.h_kind.(i) <- kind;
  fs.h_pkt.(i) <- pkt;
  fs.h_nf.(i) <- nf;
  fs.h_pos <- (i + 1) mod history;
  if fs.h_len < history then fs.h_len <- fs.h_len + 1

let pkt_state t fs pkt =
  match Int_table.find t.pkts pkt with
  | ps -> ps
  | exception Not_found ->
    let ps =
      {
        p_flow = fs;
        p_seq = -1;
        p_forwarded = false;
        p_buffered = false;
        p_processed = false;
        p_nf = "";
        p_vt = 0.0;
        p_shard = 0;
        p_op = 0;
        p_op_name = "";
        p_phase = "";
      }
    in
    Int_table.add t.pkts pkt ps;
    ps

(* --- op context ------------------------------------------------------------ *)

let root_of t span =
  match Int_table.find t.roots span with
  | o -> Some o
  | exception Not_found -> Int_table.find_opt t.children span

let op_open t (ev : Trace.ev) =
  match if ev.Trace.parent = 0 then None else root_of t ev.Trace.parent with
  | Some root -> Int_table.replace t.children ev.Trace.id root
  | None ->
    let o_shard =
      let s = ref 0 in
      Array.iter
        (fun (k, v) ->
          match v with
          | Trace.Int sh when k = "shard" -> s := sh
          | _ -> ())
        ev.Trace.attrs;
      !s
    in
    let o = { o_span = ev.Trace.id; o_name = ev.Trace.name; o_shard; o_phase = "" } in
    Int_table.replace t.roots o.o_span o;
    t.open_roots <- o :: t.open_roots

let span_close t (ev : Trace.ev) =
  let span = ev.Trace.id in
  match Int_table.find t.roots span with
  | o ->
    Int_table.remove t.roots span;
    t.open_roots <- List.filter (fun o' -> o' != o) t.open_roots
  | exception Not_found -> Int_table.remove t.children span

let phase_mark t (ev : Trace.ev) =
  match root_of t ev.Trace.parent with
  | Some root -> root.o_phase <- ev.Trace.name
  | None -> ()

let op_event t (ev : Trace.ev) =
  match ev.Trace.kind with
  | Trace.Instant ->
    if ev.Trace.cat = "op" && ev.Trace.parent <> 0 then phase_mark t ev
  | Trace.Begin -> if ev.Trace.cat = "op" then op_open t ev
  | Trace.End -> span_close t ev

(* --- findings --------------------------------------------------------------- *)

let finding ~property ~(ps : pkt_state) ~pkt ~detail =
  {
    property;
    flow = flow_string ps.p_flow;
    pkt;
    shard = ps.p_shard;
    vt = ps.p_vt;
    op_span = ps.p_op;
    op = ps.p_op_name;
    phase = ps.p_phase;
    detail;
    history = history_lines ps.p_flow;
  }

let emit t ~property ~ps ~pkt ~detail =
  t.streamed <- finding ~property ~ps ~pkt ~detail :: t.streamed

let row t kind ~pkt ~nf ~src ~dst ~proto ~sport ~dport ~vt =
  let fs = flow_state t ~src ~dst ~proto ~sport ~dport in
  push fs kind ~pkt ~nf ~vt;
  let ps = pkt_state t fs pkt in
  ps.p_vt <- vt;
  ps.p_nf <- nf;
  (* The op a row "occurred under": the newest still-open root op
     span, or none at all. *)
  (match t.open_roots with
  | o :: _ ->
    ps.p_op <- o.o_span;
    ps.p_op_name <- o.o_name;
    ps.p_shard <- o.o_shard;
    ps.p_phase <- o.o_phase
  | [] ->
    ps.p_op <- 0;
    ps.p_op_name <- "";
    ps.p_shard <- 0;
    ps.p_phase <- "");
  match kind with
  | Forward ->
    (* First forwarding assigns the flow-order sequence; relays of the
       same id (packet-outs during a move) keep the original slot. *)
    if not (ps.p_forwarded || ps.p_processed) then begin
      ps.p_forwarded <- true;
      ps.p_seq <- fs.next_fwd;
      fs.next_fwd <- fs.next_fwd + 1
    end
  | Process ->
    if ps.p_processed then
      emit t ~property:Duplicate ~ps ~pkt
        ~detail:(Printf.sprintf "processed again at %s" nf)
    else begin
      ps.p_processed <- true;
      ps.p_buffered <- false;
      if ps.p_seq >= 0 then
        if ps.p_seq < fs.max_done then
          emit t ~property:Order ~ps ~pkt
            ~detail:
              (Printf.sprintf
                 "forwarded %d packet(s) before the newest processed one \
                  but processed after it"
                 (fs.max_done - ps.p_seq))
        else fs.max_done <- ps.p_seq
    end
  | Buffer -> if not ps.p_processed then ps.p_buffered <- true
  | Arrival | Nf_arrival | Drop | Event -> ()

(* --- verdict ---------------------------------------------------------------- *)

(* Properties compare in declaration order. *)
let finding_key f = (f.vt, f.shard, f.pkt, f.property, f.flow, f.detail)

let verdict t =
  let pending = ref [] in
  Int_table.iter
    (fun pkt (ps : pkt_state) ->
      if not ps.p_processed then begin
        if ps.p_forwarded then
          pending :=
            finding ~property:Loss ~ps ~pkt
              ~detail:
                (Printf.sprintf "forwarded (flow seq %d) but never processed"
                   ps.p_seq)
            :: !pending;
        if ps.p_buffered then
          pending :=
            finding ~property:Buffer_conservation ~ps ~pkt
              ~detail:(Printf.sprintf "buffered at %s but never released" ps.p_nf)
            :: !pending
      end)
    t.pkts;
  List.sort
    (fun a b -> compare (finding_key a) (finding_key b))
    (List.rev_append t.streamed !pending)

(* --- rendering --------------------------------------------------------------- *)

let render findings =
  match findings with
  | [] -> "monitor: clean (0 violations)\n"
  | fs ->
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf "monitor: %d violation(s)\n" (List.length fs));
    List.iter
      (fun f ->
        Buffer.add_string b
          (Printf.sprintf "  [%s] pkt=%d flow=%s shard=%d t=%.9f%s%s\n"
             (property_name f.property)
             f.pkt f.flow f.shard f.vt
             (if f.op = "" then ""
              else Printf.sprintf " op=%s#%d" f.op f.op_span)
             (if f.phase = "" then "" else " phase=" ^ f.phase));
        Buffer.add_string b ("    " ^ f.detail ^ "\n");
        List.iter
          (fun h -> Buffer.add_string b ("    | " ^ h ^ "\n"))
          f.history)
      fs;
    Buffer.contents b
