module Faults = Opennf_sim.Faults

type 'a t = {
  engine : Opennf_sim.Engine.t;
  latency : float;
  bandwidth : float option;
  name : string;
  link : Faults.link option;  (** Resolved once; see {!Faults.link}. *)
  mutable handler : ('a -> int -> unit) option;
  early : ('a * int) Queue.t;
      (** Deliveries that came due before a handler was installed. *)
  mutable busy_until : float;  (** Sender-side serialization. *)
  mutable last_delivery : float;  (** Enforces FIFO delivery. *)
  mutable sent_count : int;
  mutable bytes_sent : int;
  mutable dropped_count : int;
  trace : Opennf_obs.Trace.t;
  m_msgs : Opennf_obs.Metrics.counter;
  m_bytes : Opennf_obs.Metrics.counter;
  m_dropped : Opennf_obs.Metrics.counter;
}

let create engine ~latency ?bandwidth ?faults ~name () =
  let obs = Opennf_sim.Engine.obs engine in
  let metrics = Opennf_obs.Hub.metrics obs in
  {
    engine;
    latency;
    bandwidth;
    name;
    link = Option.map (fun f -> Faults.link f name) faults;
    handler = None;
    early = Queue.create ();
    busy_until = 0.0;
    last_delivery = 0.0;
    sent_count = 0;
    bytes_sent = 0;
    dropped_count = 0;
    trace = Opennf_obs.Hub.trace obs;
    m_msgs = Opennf_obs.Metrics.counter metrics "ch.msgs";
    m_bytes = Opennf_obs.Metrics.counter metrics "ch.bytes";
    m_dropped = Opennf_obs.Metrics.counter metrics "ch.dropped";
  }

let drain_early t =
  match t.handler with
  | None -> ()
  | Some f ->
    while not (Queue.is_empty t.early) do
      let msg, size = Queue.pop t.early in
      f msg size
    done

let set_handler t f =
  t.handler <- Some (fun msg _size -> f msg);
  drain_early t

let set_handler_with_size t f =
  t.handler <- Some f;
  drain_early t

let deliver t msg size =
  match t.handler with
  | Some f -> f msg size
  | None -> Queue.push (msg, size) t.early

let send t ~size msg =
  let module Engine = Opennf_sim.Engine in
  let now = Engine.now t.engine in
  let start = Float.max now t.busy_until in
  let tx_time =
    match t.bandwidth with
    | None -> 0.0
    | Some bw -> float_of_int size /. bw
  in
  t.busy_until <- start +. tx_time;
  t.sent_count <- t.sent_count + 1;
  t.bytes_sent <- t.bytes_sent + size;
  Opennf_obs.Metrics.incr t.m_msgs;
  Opennf_obs.Metrics.add t.m_bytes size;
  if Opennf_obs.Trace.enabled t.trace then
    Opennf_obs.Trace.instant t.trace ~cat:"ch" ~name:t.name
      ~attrs:[| ("bytes", Opennf_obs.Trace.Int size) |] ();
  match t.link with
  | Some link when not (Faults.link_quiet link) ->
    let copies, jitter = Faults.link_plan link in
    (* Jitter raises [last_delivery] too, so delivery order still equals
       send order (congestion, not reordering). *)
    let delivery =
      Float.max (t.busy_until +. t.latency +. jitter) t.last_delivery
    in
    t.last_delivery <- delivery;
    if copies = 0 then begin
      t.dropped_count <- t.dropped_count + 1;
      Opennf_obs.Metrics.incr t.m_dropped
    end
    else
      for _ = 1 to copies do
        Engine.schedule_at t.engine delivery (fun () -> deliver t msg size)
      done
  | Some _ | None ->
    let delivery = Float.max (t.busy_until +. t.latency) t.last_delivery in
    t.last_delivery <- delivery;
    Engine.schedule_at t.engine delivery (fun () -> deliver t msg size)

let name t = t.name
let sent_count t = t.sent_count
let bytes_sent t = t.bytes_sent
let dropped_count t = t.dropped_count
