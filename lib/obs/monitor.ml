(* Streaming checker for the §5.1 guarantees, fed audit instants.

   The monitor decodes audit instants by their positional attribute
   layout (pkt, nf, src, dst, proto, sport, dport — see Audit.attrs_at) so it
   can live below lib/net in the dependency order and still check any
   audit stream. Op spans (cat "op") interleaved in the same stream give
   findings their op/phase context. *)

type property = Loss | Order | Duplicate | Buffer_conservation

let property_name = function
  | Loss -> "loss"
  | Order -> "order"
  | Duplicate -> "duplicate"
  | Buffer_conservation -> "buffer"

let property_rank = function
  | Loss -> 0
  | Order -> 1
  | Duplicate -> 2
  | Buffer_conservation -> 3

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

(* Per-flow automaton: two counters (forward sequence numbering and the
   highest forwarded-sequence processed so far) plus a bounded ring of
   rendered audit lines — O(1) state however long the flow lives. *)
type flow_state = {
  f_key : string;
  mutable next_fwd : int;
  mutable max_done : int;
  ring : string array;
  mutable ring_len : int;
  mutable ring_pos : int;
}

(* Per-packet lifecycle, cleared down to a processed-marker once the
   packet completes (the marker is what duplicate-freedom needs). *)
type pkt_state = {
  p_flow : flow_state;
  mutable p_seq : int;  (* First-forward sequence within the flow; -1. *)
  mutable p_forwarded : bool;
  mutable p_buffered : bool;
  mutable p_processed : bool;
  mutable p_nf : string;  (* Instance of the last event. *)
  mutable p_vt : float;
  mutable p_shard : int;
  mutable p_op : int;
  mutable p_op_name : string;
  mutable p_phase : string;
}

type op_info = { o_name : string; o_shard : int }

type t = {
  k : int;
  flows : (string, flow_state) Hashtbl.t;
  pkts : (int, pkt_state) Hashtbl.t;
  (* Op-context tracking, keyed by span id. *)
  roots : (int, op_info) Hashtbl.t;
  children : (int, int) Hashtbl.t;  (* child -> its root *)
  mutable open_roots : int list;  (* Newest first. *)
  phases : (int, string) Hashtbl.t;  (* root -> last phase mark *)
  mutable streamed : finding list;  (* Newest first. *)
}

let create ?(history = 8) () =
  {
    k = Stdlib.max 1 history;
    flows = Hashtbl.create 256;
    pkts = Hashtbl.create 1024;
    roots = Hashtbl.create 16;
    children = Hashtbl.create 16;
    open_roots = [];
    phases = Hashtbl.create 16;
    streamed = [];
  }

let findings t = List.rev t.streamed
let clean = function [] -> true | _ :: _ -> false

(* --- attribute decoding --------------------------------------------------- *)

let int_attr a i =
  if i < Array.length a then
    match snd a.(i) with Trace.Int v -> v | _ -> 0
  else 0

let str_attr a i =
  if i < Array.length a then
    match snd a.(i) with Trace.Str s -> s | _ -> ""
  else ""

let ip_str v =
  Printf.sprintf "%d.%d.%d.%d"
    ((v lsr 24) land 0xff)
    ((v lsr 16) land 0xff)
    ((v lsr 8) land 0xff)
    (v land 0xff)

let proto_str = function 17 -> "udp" | 1 -> "icmp" | _ -> "tcp"

let flow_key attrs =
  Printf.sprintf "%s:%d->%s:%d/%s"
    (ip_str (int_attr attrs 2))
    (int_attr attrs 5)
    (ip_str (int_attr attrs 3))
    (int_attr attrs 6)
    (proto_str (int_attr attrs 4))

(* --- per-flow / per-packet state ------------------------------------------ *)

let flow_state t key =
  match Hashtbl.find_opt t.flows key with
  | Some fs -> fs
  | None ->
    let fs =
      {
        f_key = key;
        next_fwd = 0;
        max_done = -1;
        ring = Array.make t.k "";
        ring_len = 0;
        ring_pos = 0;
      }
    in
    Hashtbl.add t.flows key fs;
    fs

let ring_push fs line =
  fs.ring.(fs.ring_pos) <- line;
  fs.ring_pos <- (fs.ring_pos + 1) mod Array.length fs.ring;
  if fs.ring_len < Array.length fs.ring then fs.ring_len <- fs.ring_len + 1

let ring_lines fs =
  let n = Array.length fs.ring in
  List.init fs.ring_len (fun i ->
      fs.ring.((fs.ring_pos - fs.ring_len + i + (2 * n)) mod n))

let pkt_state t fs pkt =
  match Hashtbl.find_opt t.pkts pkt with
  | Some ps -> ps
  | None ->
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
    Hashtbl.add t.pkts pkt ps;
    ps

(* --- op context ------------------------------------------------------------ *)

let root_of t key =
  if Hashtbl.mem t.roots key then Some key else Hashtbl.find_opt t.children key

let op_open t (ev : Trace.ev) =
  let key = ev.Trace.id in
  match if ev.Trace.parent = 0 then None else root_of t ev.Trace.parent with
  | Some root -> Hashtbl.replace t.children key root
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
    Hashtbl.replace t.roots key { o_name = ev.Trace.name; o_shard };
    t.open_roots <- key :: t.open_roots

let span_close t (ev : Trace.ev) =
  let key = ev.Trace.id in
  if Hashtbl.mem t.roots key then begin
    Hashtbl.remove t.roots key;
    Hashtbl.remove t.phases key;
    t.open_roots <- List.filter (fun k -> k <> key) t.open_roots
  end
  else Hashtbl.remove t.children key

let phase_mark t (ev : Trace.ev) =
  match root_of t ev.Trace.parent with
  | Some root -> Hashtbl.replace t.phases root ev.Trace.name
  | None -> ()

(* --- findings --------------------------------------------------------------- *)

let emit t ~property ~(ps : pkt_state) ~pkt ~detail =
  let f =
    {
      property;
      flow = ps.p_flow.f_key;
      pkt;
      shard = ps.p_shard;
      vt = ps.p_vt;
      op_span = ps.p_op;
      op = ps.p_op_name;
      phase = ps.p_phase;
      detail;
      history = ring_lines ps.p_flow;
    }
  in
  t.streamed <- f :: t.streamed

let audit_event t (ev : Trace.ev) =
  let attrs = ev.Trace.attrs in
  if Array.length attrs >= 7 then begin
    let pkt = int_attr attrs 0 in
    let nf = str_attr attrs 1 in
    let fs = flow_state t (flow_key attrs) in
    ring_push fs
      (Printf.sprintf "%.6f %s pkt=%d nf=%s" ev.Trace.vt ev.Trace.name pkt nf);
    let ps = pkt_state t fs pkt in
    ps.p_vt <- ev.Trace.vt;
    ps.p_nf <- nf;
    ps.p_shard <- 0;
    (* The op an audit event "occurred under": the newest still-open
       root op span. *)
    (match t.open_roots with
    | key :: _ ->
      (match Hashtbl.find_opt t.roots key with
      | Some info ->
        ps.p_op <- key;
        ps.p_op_name <- info.o_name;
        ps.p_shard <- info.o_shard;
        ps.p_phase <-
          (match Hashtbl.find_opt t.phases key with Some p -> p | None -> "")
      | None -> ())
    | [] -> ());
    match ev.Trace.name with
    | "forward" ->
      (* First forwarding assigns the flow-order sequence; relays of the
         same id (packet-outs during a move) keep the original slot. *)
      if not (ps.p_forwarded || ps.p_processed) then begin
        ps.p_forwarded <- true;
        ps.p_seq <- fs.next_fwd;
        fs.next_fwd <- fs.next_fwd + 1
      end
    | "process" ->
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
    | "buffer" -> if not ps.p_processed then ps.p_buffered <- true
    | _ -> ()
  end

let feed t (ev : Trace.ev) =
  match ev.Trace.kind with
  | Trace.Instant ->
    if ev.Trace.cat = "audit" then audit_event t ev
    else if ev.Trace.cat = "op" && ev.Trace.parent <> 0 then phase_mark t ev
  | Trace.Begin -> if ev.Trace.cat = "op" then op_open t ev
  | Trace.End -> span_close t ev

(* --- verdict ---------------------------------------------------------------- *)

let finding_key f =
  (f.vt, f.shard, f.pkt, property_rank f.property, f.flow, f.detail)

let verdict t =
  let pending = ref [] in
  Hashtbl.iter
    (fun pkt (ps : pkt_state) ->
      if not ps.p_processed then begin
        if ps.p_forwarded then
          pending :=
            {
              property = Loss;
              flow = ps.p_flow.f_key;
              pkt;
              shard = ps.p_shard;
              vt = ps.p_vt;
              op_span = ps.p_op;
              op = ps.p_op_name;
              phase = ps.p_phase;
              detail =
                Printf.sprintf "forwarded (flow seq %d) but never processed"
                  ps.p_seq;
              history = ring_lines ps.p_flow;
            }
            :: !pending;
        if ps.p_buffered then
          pending :=
            {
              property = Buffer_conservation;
              flow = ps.p_flow.f_key;
              pkt;
              shard = ps.p_shard;
              vt = ps.p_vt;
              op_span = ps.p_op;
              op = ps.p_op_name;
              phase = ps.p_phase;
              detail =
                Printf.sprintf "buffered at %s but never released" ps.p_nf;
              history = ring_lines ps.p_flow;
            }
            :: !pending
      end)
    t.pkts;
  List.sort
    (fun a b -> compare (finding_key a) (finding_key b))
    (List.rev_append t.streamed !pending)

let replay ?history events =
  let t = create ?history () in
  Seq.iter (feed t) events;
  verdict t

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
