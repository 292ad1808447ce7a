module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
open Opennf_net
open Opennf_state

type event_filter = {
  filter : Filter.t;
  action : Protocol.event_action;
  unlocked : unit Flow.Table.t;
      (** Late locking: canonical keys of the get's snapshot flows not
          exported yet. The filter does not match their packets, so
          they are processed as if it were absent. Empty otherwise. *)
  buffer : Packet.t Queue.t;
}

type t = {
  engine : Engine.t;
  audit : Audit.t;
  name : string;
  impl : Nf_api.impl;
  costs : Costs.t;
  node : Opennf_sim.Faults.node option;  (** Resolved once at [create]. *)
  backend : Backend.t option;
  (* Packet CPU: a state machine over two queues; [release_q] (packets
     freed from event buffers) has priority so released packets are
     processed before later direct arrivals. At most one packet is on
     the CPU, and its service ends in one engine event, [complete]. *)
  input_q : Packet.t Queue.t;
  release_q : Packet.t Queue.t;
  mutable on_cpu : bool;
  mutable cur : Packet.t;  (** The packet on the CPU, when [on_cpu]. *)
  mutable cur_evented : bool;
      (** [cur] matched a [Process] event filter: its event is raised
          once it completes. *)
  mutable complete : unit -> unit;
      (** [cur]'s completion event, allocated once per runtime. *)
  (* Southbound state operations, FIFO. *)
  work : Protocol.request Proc.Mailbox.t;
  mutable to_ctrl : Protocol.reply Channel.t option;
  mutable event_filters : event_filter list;  (** Newest first. *)
  tombstones : Tombstones.t;
  mutable busy_ops : int;
  mutable in_service : unit Proc.Ivar.t option;
      (** Filled when the packet currently on the CPU finishes; state
          exports synchronize on it (the paper's per-connection mutex in
          the Bro patch, §7). Created only by a waiter. *)
  mutable processed : int;
  mutable dropped : int;
  mutable tombstone_drops : int;
  (* Reply batching (§8.3): when [batch_budget] is set, streamed pieces
     accumulate here (newest first) and go out as one [Batch_reply] once
     the buffered payload reaches the budget; any non-piece reply
     flushes the buffer first so the controller still sees FIFO order. *)
  mutable batch_budget : int option;
  mutable rbuf : (Protocol.reply * int) list;
  mutable rbuf_bytes : int;
  mutable shard : int;
      (** Controller shard this runtime is bound to (set at attach). *)
  trace : Opennf_obs.Trace.t;
  m_replies : Opennf_obs.Metrics.counter;
  m_reply_bytes : Opennf_obs.Metrics.counter;
  m_flushes : Opennf_obs.Metrics.counter;
  m_batch_items : Opennf_obs.Metrics.counter;
}

let name t = t.name
let impl t = t.impl
let costs t = t.costs
let backend t = t.backend
let bind_shard t shard = t.shard <- shard
let shard t = t.shard

let alive t =
  match t.node with
  | None -> true
  | Some n -> Opennf_sim.Faults.node_alive n

let send_raw t reply ~size =
  match t.to_ctrl with
  | Some chan when alive t ->
    Opennf_obs.Metrics.incr t.m_replies;
    Opennf_obs.Metrics.add t.m_reply_bytes size;
    if Opennf_obs.Trace.enabled t.trace then
      Opennf_obs.Trace.instant t.trace ~cat:"sb"
        ~name:(Protocol.reply_kind reply)
        ~attrs:
          [|
            ("nf", Opennf_obs.Trace.Str t.name);
            ("bytes", Opennf_obs.Trace.Int size);
          |]
        ();
    Channel.send chan ~size reply
  | Some _ | None -> ()

let flush_replies t =
  match t.rbuf with
  | [] -> ()
  | [ (reply, size) ] ->
    t.rbuf <- [];
    t.rbuf_bytes <- 0;
    send_raw t reply ~size
  | buffered ->
    let items = List.rev buffered in
    let size =
      List.fold_left
        (fun acc (_, s) ->
          acc + s - Protocol.message_overhead + Protocol.batch_item_overhead)
        Protocol.message_overhead items
    in
    t.rbuf <- [];
    t.rbuf_bytes <- 0;
    Opennf_obs.Metrics.incr t.m_flushes;
    Opennf_obs.Metrics.add t.m_batch_items (List.length items);
    send_raw t (Protocol.Batch_reply { items = List.map fst items }) ~size

let send_reply t ?size reply =
  let size = match size with Some s -> s | None -> Protocol.reply_size reply in
  match (t.batch_budget, reply) with
  | Some budget, Protocol.Piece _ ->
    t.rbuf <- (reply, size) :: t.rbuf;
    t.rbuf_bytes <- t.rbuf_bytes + size - Protocol.message_overhead;
    if t.rbuf_bytes >= budget then flush_replies t
  | _ ->
    flush_replies t;
    send_raw t reply ~size

let raise_event t (p : Packet.t) disposition =
  Audit.log_evented t.audit p ~nf:t.name;
  send_reply t (Protocol.Event { nf = t.name; packet = p; disposition })

let event_filter_matches ef (p : Packet.t) =
  Filter.matches_flow ef.filter p.key
  && (match ef.filter.Filter.tcp_flag with
     | None -> true
     | Some f -> Packet.has_flag p f)
  && (Flow.Table.length ef.unlocked = 0
     || not (Flow.Table.mem ef.unlocked (Flow.canonical p.key)))

(* Newest first; no closure, as it runs for every packet. *)
let rec first_event_filter p = function
  | [] -> None
  | ef :: rest ->
    if event_filter_matches ef p then Some ef else first_event_filter p rest

(* What [cur] holds before the first packet arrives. *)
let no_packet =
  let zero = Ipaddr.v 0 0 0 0 in
  Packet.create ~id:(-1)
    ~key:(Flow.make ~src:zero ~dst:zero ~sport:0 ~dport:0 ())
    ~sent_at:0.0 ()

(* Put a packet on the NF CPU; [complete] takes it off. *)
let start t (p : Packet.t) ~evented =
  t.on_cpu <- true;
  t.cur <- p;
  t.cur_evented <- evented;
  let penalty = if t.busy_ops > 0 then 1.0 +. t.costs.Costs.export_penalty else 1.0 in
  Engine.schedule t.engine ~delay:(t.costs.Costs.proc_time *. penalty) t.complete

(* Wait for the packet currently being serviced (if any) to finish, so a
   state capture cannot miss an update that is already half-applied. *)
let wait_for_service t =
  if t.on_cpu then begin
    let done_ivar =
      match t.in_service with
      | Some iv -> iv
      | None ->
        let iv = Proc.Ivar.create t.engine in
        t.in_service <- Some iv;
        iv
    in
    Proc.Ivar.read done_ivar
  end

let dispose t (p : Packet.t) =
  match first_event_filter p t.event_filters with
  | Some ef -> (
    match ef.action with
    | Protocol.Drop when not p.do_not_drop ->
      t.dropped <- t.dropped + 1;
      Audit.log_drop t.audit p ~nf:t.name;
      raise_event t p Protocol.Drop
    | Protocol.Buffer when not p.do_not_buffer ->
      Queue.push p ef.buffer;
      Audit.log_buffered t.audit p ~nf:t.name;
      raise_event t p Protocol.Buffer
    | Protocol.Process | Protocol.Drop | Protocol.Buffer ->
      start t p ~evented:true)
  | None ->
    if Tombstones.matches t.tombstones p.key then begin
      t.dropped <- t.dropped + 1;
      t.tombstone_drops <- t.tombstone_drops + 1;
      Audit.log_drop t.audit p ~nf:t.name
    end
    else start t p ~evented:false

(* Serve queued packets until one is on the CPU or both queues are
   empty. A crashed or hung NF leaves its queues as they are; the next
   arrival or release retries, so a hung NF resumes with the first
   packet after its window. *)
let pump t =
  while
    (not t.on_cpu)
    && alive t
    && not (Queue.is_empty t.release_q && Queue.is_empty t.input_q)
  do
    dispose t
      (if Queue.is_empty t.release_q then Queue.pop t.input_q
       else Queue.pop t.release_q)
  done

let complete t () =
  let p = t.cur in
  (* A crash while the packet was on the CPU loses it mid-flight. *)
  if alive t then begin
    t.impl.Nf_api.process_packet p;
    t.processed <- t.processed + 1;
    Audit.log_process t.audit p ~nf:t.name;
    (* Delta replication rides the packet's own service time: exporting
       schedules nothing on the NF, only (for a replicated primary) a
       send on the delta channel. *)
    match t.backend with
    | Some b -> Backend.note_packet b p.Packet.key
    | None -> ()
  end;
  t.on_cpu <- false;
  (match t.in_service with
  | Some done_ivar ->
    t.in_service <- None;
    Proc.Ivar.fill done_ivar ()
  | None -> ());
  if t.cur_evented then raise_event t p Protocol.Process;
  pump t

let receive t p =
  Audit.log_nf_arrival t.audit p ~nf:t.name;
  Queue.push p t.input_q;
  pump t

(* Southbound state operations, executed FIFO by a dedicated process so
   puts pipeline behind gets without blocking enable/disable. *)

let serialize_pause t chunk =
  Proc.sleep (Costs.serialize_time t.costs ~bytes:(Chunk.size chunk))

let deserialize_pause t chunk =
  Proc.sleep (Costs.deserialize_time t.costs ~bytes:(Chunk.size chunk))

let add_event_filter t ?(unlocked = Flow.Table.create 1) filter action =
  t.event_filters <-
    { filter; action; unlocked; buffer = Queue.create () } :: t.event_filters

(* With [late_lock], one [Drop] filter on the whole get filter locks
   every flow except the snapshot's not-yet-exported ones: a flow first
   seen after the snapshot is dropped and evented from the start, and a
   snapshot flow is locked just before its export.

   With [compress], the NF->controller connection behaves like a
   compressed socket stream (§8.3): each chunk's wire footprint is what
   it adds to the stream given the previous chunk as dictionary, and the
   compression work shares the serialization path's CPU. *)
let run_get t ~req ~filter ~stream ~late_lock ~compress ~list ~export =
  wait_for_service t;
  t.busy_ops <- t.busy_ops + 1;
  let flowids = list filter in
  let canonical flowid = Option.map Flow.canonical (Filter.exact_key flowid) in
  let unlocked =
    Flow.Table.create (if late_lock then List.length flowids else 1)
  in
  if late_lock then begin
    List.iter
      (fun flowid ->
        Option.iter
          (fun k -> Flow.Table.replace unlocked k ())
          (canonical flowid))
      flowids;
    add_event_filter t ~unlocked filter Protocol.Drop
  end;
  let collected = ref [] in
  let dict = ref "" in
  List.iter
    (fun flowid ->
      if late_lock then
        Option.iter (Flow.Table.remove unlocked) (canonical flowid);
      match export flowid with
      | None -> ()
      | Some chunk ->
        serialize_pause t chunk;
        let wire_size =
          if compress then begin
            Proc.sleep
              (0.2 *. Costs.serialize_time t.costs ~bytes:(Chunk.size chunk));
            let w =
              Opennf_util.Lz.wire_size_with_dict ~dict:!dict
                chunk.Chunk.data
            in
            dict := chunk.Chunk.data;
            (* Framing (repetitive JSON in the paper's protocol)
               compresses ~4x in the same stream. *)
            Some ((Protocol.message_overhead / 4) + 32 + w)
          end
          else None
        in
        if stream then
          send_reply t ?size:wire_size (Protocol.Piece { req; flowid; chunk })
        else collected := (flowid, chunk) :: !collected)
    flowids;
  t.busy_ops <- t.busy_ops - 1;
  let done_msg = Protocol.Done { req; chunks = List.rev !collected } in
  let done_size =
    if compress && not stream then
      Some
        (Protocol.message_overhead
        + (32 * List.length !collected)
        + int_of_float
            (float_of_int
               (List.fold_left
                  (fun acc (_, c) -> acc + Chunk.size c)
                  0 !collected)
            *. Opennf_util.Lz.stream_ratio
                 (List.rev_map (fun (_, c) -> c.Chunk.data) !collected)))
    else None
  in
  send_reply t ?size:done_size done_msg

let run_put t ~req ~chunks ~import =
  t.busy_ops <- t.busy_ops + 1;
  List.iter
    (fun (flowid, chunk) ->
      deserialize_pause t chunk;
      import flowid (Chunk.decompress chunk))
    chunks;
  t.busy_ops <- t.busy_ops - 1;
  send_reply t (Protocol.Ack { req })

let handle_op t (req : Protocol.request) =
  match req with
  | Protocol.Get_perflow { req; filter; stream; late_lock; compress } ->
    run_get t ~req ~filter ~stream ~late_lock ~compress
      ~list:t.impl.Nf_api.list_perflow ~export:t.impl.Nf_api.export_perflow
  | Protocol.Get_multiflow { req; filter; stream; compress } ->
    run_get t ~req ~filter ~stream ~late_lock:false ~compress
      ~list:t.impl.Nf_api.list_multiflow ~export:t.impl.Nf_api.export_multiflow
  | Protocol.Get_allflows { req } ->
    wait_for_service t;
    t.busy_ops <- t.busy_ops + 1;
    let chunks = t.impl.Nf_api.export_allflows () in
    List.iter (serialize_pause t) chunks;
    t.busy_ops <- t.busy_ops - 1;
    send_reply t
      (Protocol.Done { req; chunks = List.map (fun c -> (Filter.any, c)) chunks })
  | Protocol.Put_perflow { req; chunks } ->
    run_put t ~req ~chunks ~import:(fun flowid chunk ->
        Tombstones.clear_for t.tombstones flowid;
        t.impl.Nf_api.import_perflow flowid chunk)
  | Protocol.Put_multiflow { req; chunks } ->
    run_put t ~req ~chunks ~import:t.impl.Nf_api.import_multiflow
  | Protocol.Put_allflows { req; chunks } ->
    t.busy_ops <- t.busy_ops + 1;
    List.iter (deserialize_pause t) chunks;
    t.impl.Nf_api.import_allflows chunks;
    t.busy_ops <- t.busy_ops - 1;
    send_reply t (Protocol.Ack { req })
  | Protocol.Del_perflow { req; flowids } ->
    (* Like exports, deletions synchronize with the packet on the CPU:
       otherwise the in-service packet would re-create state for a flow
       deleted underneath it. *)
    wait_for_service t;
    List.iter
      (fun flowid ->
        t.impl.Nf_api.delete_perflow flowid;
        Tombstones.add t.tombstones flowid)
      flowids;
    send_reply t (Protocol.Ack { req })
  | Protocol.Del_multiflow { req; flowids } ->
    wait_for_service t;
    List.iter t.impl.Nf_api.delete_multiflow flowids;
    send_reply t (Protocol.Ack { req })
  | Protocol.Ping { req } -> send_reply t (Protocol.Ack { req })
  | Protocol.Enable_events _ | Protocol.Disable_events _
  | Protocol.Set_batching _ ->
    assert false (* handled inline in [control] *)

let disable_events t filter =
  let drop, keep =
    List.partition (fun ef -> Filter.equal ef.filter filter) t.event_filters
  in
  t.event_filters <- keep;
  (* Release buffered packets in arrival order. *)
  List.iter
    (fun ef -> Queue.iter (fun p -> Queue.push p t.release_q) ef.buffer)
    (List.rev drop);
  pump t

let control t (req : Protocol.request) =
  if alive t then
    match req with
    | Protocol.Enable_events { filter; action } ->
      add_event_filter t filter action
    | Protocol.Disable_events { filter } -> disable_events t filter
    | Protocol.Set_batching { bytes } -> t.batch_budget <- bytes
    | _ -> Proc.Mailbox.send t.work req

let set_controller t chan = t.to_ctrl <- Some chan

let create engine audit ~name ~impl ~costs ?faults ?backend () =
  let obs = Engine.obs engine in
  let metrics = Opennf_obs.Hub.metrics obs in
  let t =
    {
      engine;
      audit;
      name;
      impl;
      costs;
      node = Option.map (fun f -> Opennf_sim.Faults.node f name) faults;
      backend;
      input_q = Queue.create ();
      release_q = Queue.create ();
      on_cpu = false;
      cur = no_packet;
      cur_evented = false;
      complete = ignore;
      work = Proc.Mailbox.create engine;
      to_ctrl = None;
      event_filters = [];
      tombstones = Tombstones.create ();
      busy_ops = 0;
      in_service = None;
      processed = 0;
      dropped = 0;
      tombstone_drops = 0;
      batch_budget = None;
      rbuf = [];
      rbuf_bytes = 0;
      shard = 0;
      trace = Opennf_obs.Hub.trace obs;
      m_replies = Opennf_obs.Metrics.counter metrics "sb.replies";
      m_reply_bytes = Opennf_obs.Metrics.counter metrics "sb.reply_bytes";
      m_flushes = Opennf_obs.Metrics.counter metrics "sb.batch.flushes";
      m_batch_items = Opennf_obs.Metrics.counter metrics "sb.batch.items";
    }
  in
  t.complete <- complete t;
  (* Both ends of a replicated pair wire both directions; the backend's
     role decides which one is exercised. Export reuses the NF's own
     southbound serializers, so delta frames carry exactly the chunks a
     get would — byte-comparable with bulk transfer. *)
  Option.iter
    (fun b ->
      Backend.set_exporter b (fun scope flowid ->
          match (scope : Scope.t) with
          | Scope.Per -> impl.Nf_api.export_perflow flowid
          | Scope.Multi -> impl.Nf_api.export_multiflow flowid
          | Scope.All -> None);
      Backend.set_applier b (fun scope flowid chunk ->
          match ((scope : Scope.t), chunk) with
          | Scope.Per, Some c -> impl.Nf_api.import_perflow flowid c
          | Scope.Per, None -> impl.Nf_api.delete_perflow flowid
          | Scope.Multi, Some c -> impl.Nf_api.import_multiflow flowid c
          | Scope.Multi, None -> impl.Nf_api.delete_multiflow flowid
          | Scope.All, _ -> ()))
    backend;
  Proc.spawn engine (fun () ->
      let rec loop () =
        let req = Proc.Mailbox.recv t.work in
        (* A dead NF drains its queue silently: the op neither runs nor
           is answered, so the controller's deadline fires. *)
        if alive t then handle_op t req;
        loop ()
      in
      loop ());
  t

let processed_count t = t.processed
let dropped_count t = t.dropped
let tombstone_dropped t = t.tombstone_drops

let buffered_count t =
  List.fold_left (fun acc ef -> acc + Queue.length ef.buffer) 0 t.event_filters

let queue_length t = Queue.length t.input_q + Queue.length t.release_q
let busy t = t.busy_ops > 0
