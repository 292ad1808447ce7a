(* Reference oracle for the audit ledger: the straightforward
   trace-backed design. Every record is a boxed [cat:"audit"] trace
   instant with positional attributes; every query folds the trace
   buffer, decoding records as it goes; the first-time indexes are
   hashtables filled at log time. Slow and allocation
   heavy, but each query is a direct transcription of its §5.1
   definition, which is what the row-chunk {!Opennf_net.Audit} is
   checked against. *)

module Engine = Opennf_sim.Engine
module Trace = Opennf_obs.Trace
module Monitor = Opennf_obs.Monitor
open Opennf_net

type record = { pkt : int; key : Flow.key; nf : string; time : float }

type t = {
  engine : Engine.t;
  trace : Trace.t;
  arrived : (int, unit) Hashtbl.t;
  first_forward : (int, float) Hashtbl.t;
  first_arrival : (int, float) Hashtbl.t;
  first_process : (int, float) Hashtbl.t;
}

let create engine =
  let trace = Trace.create () in
  Trace.set_clock trace (fun () -> Engine.now engine);
  {
    engine;
    trace;
    arrived = Hashtbl.create 64;
    first_forward = Hashtbl.create 64;
    first_arrival = Hashtbl.create 64;
    first_process = Hashtbl.create 64;
  }

let trace t = t.trace

let proto_code = function Flow.Tcp -> 6 | Flow.Udp -> 17 | Flow.Icmp -> 1
let proto_of_code = function 17 -> Flow.Udp | 1 -> Flow.Icmp | _ -> Flow.Tcp

let log t name (p : Packet.t) nf =
  let k = p.Packet.key in
  Trace.instant t.trace ~cat:"audit" ~name
    ~attrs:
      [|
        ("pkt", Trace.Int p.Packet.id);
        ("nf", Trace.Str nf);
        ("src", Trace.Int (Ipaddr.to_int k.Flow.src_ip));
        ("dst", Trace.Int (Ipaddr.to_int k.Flow.dst_ip));
        ("proto", Trace.Int (proto_code k.Flow.proto));
        ("sport", Trace.Int k.Flow.src_port);
        ("dport", Trace.Int k.Flow.dst_port);
      |]
    ()

(* A typed row (an {!Audit.subscriber}'s arguments) as a record. *)
let record_of_row ~pkt ~nf ~src ~dst ~proto ~sport ~dport ~vt =
  {
    pkt;
    nf;
    key =
      Flow.make ~src:(Ipaddr.of_int src) ~dst:(Ipaddr.of_int dst)
        ~proto:(proto_of_code proto) ~sport ~dport ();
    time = vt;
  }

(* An audit instant's positional attributes (pkt, nf, src, dst, proto,
   sport, dport), handed to [f] as a typed row. *)
let with_row (ev : Trace.ev) f =
  let a = ev.Trace.attrs in
  let int i = match snd a.(i) with Trace.Int v -> v | _ -> 0 in
  let str i = match snd a.(i) with Trace.Str s -> s | _ -> "" in
  f ~pkt:(int 0) ~nf:(str 1) ~src:(int 2) ~dst:(int 3) ~proto:(int 4)
    ~sport:(int 5) ~dport:(int 6) ~vt:ev.Trace.vt

let decode ev = with_row ev record_of_row

let is_audit (ev : Trace.ev) = ev.Trace.kind = Trace.Instant && ev.Trace.cat = "audit"

let kind_of_name name =
  List.find
    (fun k -> Monitor.kind_name k = name)
    Monitor.[ Arrival; Forward; Nf_arrival; Process; Drop; Event; Buffer ]

(* Feed one hub-trace event to a monitor's typed entry points: a
   ledger mirror instant as the row it mirrors, anything else as an op
   event. Replaying a traced run's hub trace through this checks the
   monitor against the export rather than the rows. *)
let feed_monitor m (ev : Trace.ev) =
  if is_audit ev then with_row ev (Monitor.row m (kind_of_name ev.Trace.name))
  else Monitor.op_event m ev

let records t wanted =
  List.rev
    (Trace.fold t.trace
       (fun acc ev ->
         if is_audit ev && ev.Trace.name = wanted
         then decode ev :: acc
         else acc)
       [])

let remember tbl id time = if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id time
let now t = Engine.now t.engine

let log_switch_arrival t p =
  if not (Hashtbl.mem t.arrived p.Packet.id) then begin
    Hashtbl.add t.arrived p.Packet.id ();
    log t "arrival" p "sw"
  end

let log_forward t p ~dst =
  log t "forward" p dst;
  remember t.first_forward p.Packet.id (now t)

let log_nf_arrival t p ~nf =
  log t "nf_arrival" p nf;
  remember t.first_arrival p.Packet.id (now t)

let log_process t p ~nf =
  log t "process" p nf;
  remember t.first_process p.Packet.id (now t)

let log_drop t p ~nf = log t "drop" p nf
let log_evented t p ~nf = log t "event" p nf
let log_buffered t p ~nf = log t "buffer" p nf

let in_filter filter (r : record) =
  match filter with None -> true | Some f -> Filter.matches_flow f r.key

let by_nf nf (r : record) = match nf with None -> true | Some n -> r.nf = n

let forwarded_order ?filter t =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun r ->
      if in_filter filter r && not (Hashtbl.mem seen r.pkt) then begin
        Hashtbl.add seen r.pkt ();
        Some r.pkt
      end
      else None)
    (records t "forward")

let processed_order ?filter ?nf t =
  List.filter_map
    (fun r -> if in_filter filter r && by_nf nf r then Some r.pkt else None)
    (records t "process")

let drop_count ?nf t = List.length (List.filter (by_nf nf) (records t "drop"))
let processed_count ?nf t = List.length (List.filter (by_nf nf) (records t "process"))

let lost ?filter t ~nfs =
  let processed = Hashtbl.create 64 in
  List.iter
    (fun (r : record) -> if List.mem r.nf nfs then Hashtbl.replace processed r.pkt ())
    (records t "process");
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (r : record) ->
      if
        in_filter filter r && List.mem r.nf nfs
        && (not (Hashtbl.mem seen r.pkt))
        && not (Hashtbl.mem processed r.pkt)
      then begin
        Hashtbl.add seen r.pkt ();
        Some r.pkt
      end
      else None)
    (records t "forward")

let duplicated ?filter t =
  let counts = Hashtbl.create 1024 in
  List.iter
    (fun (r : record) ->
      if in_filter filter r then
        Hashtbl.replace counts r.pkt
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts r.pkt)))
    (records t "process");
  Hashtbl.fold (fun id n acc -> if n > 1 then id :: acc else acc) counts []

let violations_against t reference_order ?filter () =
  let pos = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) reference_order;
  let proc = List.filter (fun id -> Hashtbl.mem pos id) (processed_order ?filter t) in
  let rec scan acc = function
    | a :: (b :: _ as rest) ->
      let pa = Hashtbl.find pos a and pb = Hashtbl.find pos b in
      scan (if pa > pb then (b, a) :: acc else acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  scan [] proc

let order_violations ?filter t =
  violations_against t (forwarded_order ?filter t) ?filter ()

let arrival_order_violations ?filter t =
  let arrivals =
    List.filter_map
      (fun r -> if in_filter filter r then Some r.pkt else None)
      (records t "arrival")
  in
  violations_against t arrivals ?filter ()

let added_latency t ~pkt =
  match (Hashtbl.find_opt t.first_arrival pkt, Hashtbl.find_opt t.first_process pkt) with
  | Some arrival, Some proc -> Some (proc -. arrival)
  | _ -> None

let evented_ids ?nf t =
  List.filter_map (fun r -> if by_nf nf r then Some r.pkt else None) (records t "event")

let buffered_ids ?nf t =
  List.filter_map (fun r -> if by_nf nf r then Some r.pkt else None) (records t "buffer")

let first_forward_time t ~pkt = Hashtbl.find_opt t.first_forward pkt
let process_time t ~pkt = Hashtbl.find_opt t.first_process pkt
