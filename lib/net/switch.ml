module Engine = Opennf_sim.Engine

type to_switch =
  | Install of {
      cookie : int;
      priority : int;
      filters : Filter.t list;
      actions : Flowtable.action list;
    }
  | Remove of { cookie : int }
  | Packet_out of { port : string; packet : Packet.t }
  | Barrier of { id : int }

type from_switch =
  | Packet_in of { packet : Packet.t; cookie : int }
  | Barrier_reply of { id : int }

type t = {
  engine : Engine.t;
  audit : Audit.t;
  name : string;
  flow_mod_delay : float;
  packet_out_rate : float;
  table : Flowtable.t;
  mutable port_names : string array;
  mutable port_chans : Packet.t Channel.t array;
      (** Parallel arrays in attach order. A rule's [Forward] port is
          usually the very string the port was attached under, so
          [port_index] tries physical equality across all ports before
          comparing strings. *)
  mutable controllers : from_switch Channel.t option array;
      (** Indexed by connection id; slot 0 is the legacy controller. *)
  mutable pick_conn : (Packet.t -> int) option;
      (** Routes packet-ins to a connection; [None] = everything to 0. *)
  mutable mods_applied_by : float array;
      (** Per connection: latest activation time among its flow-mods.
          Barriers are per-connection, as in OpenFlow: a barrier covers
          only the flow-mods that arrived on the same connection. *)
  mutable packet_out_free_at : float;
      (** Next instant the packet-out path is idle. *)
  mutable packet_out_backlog : int;
  mutable table_misses : int;
}

let create engine audit ~name ?(flow_mod_delay = 0.010)
    ?(packet_out_rate = 1.0e9) () =
  {
    engine;
    audit;
    name;
    flow_mod_delay;
    packet_out_rate;
    table = Flowtable.create ~engine ();
    port_names = [||];
    port_chans = [||];
    controllers = [||];
    pick_conn = None;
    mods_applied_by = [||];
    packet_out_free_at = 0.0;
    packet_out_backlog = 0;
    table_misses = 0;
  }

let port_index t name =
  let names = t.port_names in
  let n = Array.length names in
  let i = ref 0 in
  while !i < n && names.(!i) != name do
    incr i
  done;
  if !i = n then begin
    i := 0;
    while !i < n && not (String.equal names.(!i) name) do
      incr i
    done
  end;
  !i

let attach_port t ~name chan =
  let i = port_index t name in
  if i < Array.length t.port_names then t.port_chans.(i) <- chan
  else begin
    t.port_names <- Array.append t.port_names [| name |];
    t.port_chans <- Array.append t.port_chans [| chan |]
  end

(* Connection state (the channel slot and the barrier clock) is grown on
   demand: a barrier can arrive on a connection before its reply channel
   is registered, and the reply — scheduled for later — must still find
   the channel if registration happens in between. *)
let ensure_conn t conn =
  let n = Array.length t.controllers in
  if conn >= n then begin
    let grown = Array.make (conn + 1) None in
    Array.blit t.controllers 0 grown 0 n;
    t.controllers <- grown;
    let clocks = Array.make (conn + 1) 0.0 in
    Array.blit t.mods_applied_by 0 clocks 0 n;
    t.mods_applied_by <- clocks
  end

let register_controller t chan =
  let conn =
    let n = Array.length t.controllers in
    let rec first i = if i >= n || t.controllers.(i) = None then i else first (i + 1) in
    first 0
  in
  ensure_conn t conn;
  t.controllers.(conn) <- Some chan;
  conn

let set_controller t chan =
  ensure_conn t 0;
  t.controllers.(0) <- Some chan

let set_packet_in_router t f = t.pick_conn <- Some f

let send_on t ~conn msg =
  match
    if conn >= 0 && conn < Array.length t.controllers then t.controllers.(conn)
    else None
  with
  | Some chan -> Channel.send chan ~size:128 msg
  | None ->
    invalid_arg
      (Printf.sprintf "Switch %s: no controller on connection %d" t.name conn)

let send_packet_in t packet cookie =
  let conn = match t.pick_conn with None -> 0 | Some f -> f packet in
  send_on t ~conn (Packet_in { packet; cookie })

let forward t (p : Packet.t) port =
  let i = port_index t port in
  if i >= Array.length t.port_chans then
    invalid_arg (Printf.sprintf "Switch %s: no port %s" t.name port);
  Audit.log_forward t.audit p ~dst:port;
  Channel.send t.port_chans.(i) ~size:p.Packet.wire_size p

let rec apply_actions t p cookie = function
  | [] -> ()
  | (action : Flowtable.action) :: rest ->
    (match action with
    | Forward port -> forward t p port
    | To_controller -> send_packet_in t p cookie);
    apply_actions t p cookie rest

let inject t p =
  Audit.log_switch_arrival t.audit p;
  match Flowtable.lookup t.table p with
  | None -> t.table_misses <- t.table_misses + 1
  | Some rule -> apply_actions t p rule.Flowtable.cookie rule.Flowtable.actions

let control_from t ~conn msg =
  let now = Engine.now t.engine in
  ensure_conn t conn;
  match msg with
  | Install { cookie; priority; filters; actions } ->
    let apply_at = now +. t.flow_mod_delay in
    t.mods_applied_by.(conn) <- Float.max t.mods_applied_by.(conn) apply_at;
    Engine.schedule_at t.engine apply_at (fun () ->
        Flowtable.install t.table ~cookie ~priority ~filters ~actions)
  | Remove { cookie } ->
    let apply_at = now +. t.flow_mod_delay in
    t.mods_applied_by.(conn) <- Float.max t.mods_applied_by.(conn) apply_at;
    Engine.schedule_at t.engine apply_at (fun () ->
        Flowtable.remove t.table ~cookie)
  | Packet_out { port; packet } ->
    let start = Float.max now t.packet_out_free_at in
    t.packet_out_free_at <- start +. (1.0 /. t.packet_out_rate);
    t.packet_out_backlog <- t.packet_out_backlog + 1;
    Engine.schedule_at t.engine t.packet_out_free_at (fun () ->
        t.packet_out_backlog <- t.packet_out_backlog - 1;
        forward t packet port)
  | Barrier { id } ->
    (* Reply once every earlier flow-mod of this connection is active.
       Control-channel serialization (which makes a flow-mod queue
       behind a packet-out flush) is modeled on the controller->switch
       channel itself. *)
    let reply_at = Float.max now t.mods_applied_by.(conn) in
    Engine.schedule_at t.engine reply_at (fun () ->
        send_on t ~conn (Barrier_reply { id }))

let control t msg = control_from t ~conn:0 msg

let table t = t.table
let table_misses t = t.table_misses

let packet_out_backlog t = t.packet_out_backlog

let slice_rule_counts t ~shards = Flowtable.slice_counts t.table ~shards
