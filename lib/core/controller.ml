module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Faults = Opennf_sim.Faults
module Protocol = Opennf_sb.Protocol
module Runtime = Opennf_sb.Runtime
module Int_table = Opennf_util.Int_table
open Opennf_net
open Opennf_state

type config = {
  nf_latency : float;
  sw_latency : float;
  sw_bandwidth : float option;
  msg_cost : float;
  msg_cost_per_byte : float;
  sb_batch_bytes : int option;
}

let default_config =
  {
    nf_latency = 0.002;
    sw_latency = 0.002;
    (* An OpenFlow control connection moves roughly 600 kB/s of
       packet-outs on the paper's testbed (~3000 packet-outs/s), so the
       final flow-mod of a move queues behind the event flush. *)
    sw_bandwidth = Some 600_000.0;
    msg_cost = 25e-6;
    msg_cost_per_byte = 0.35e-6;
    sb_batch_bytes = None;
  }

type resilience = {
  call_timeout : float;
  max_retries : int;
  backoff : float;
  liveness_misses : int;
  probe_period : float;
}

(* Worst-case budget of one resilient call: every attempt times out and
   every backoff is paid. Operations use it to bound their own waits. *)
let call_budget r =
  let rec backoffs n acc =
    if n >= r.max_retries then acc
    else backoffs (n + 1) (acc +. (r.backoff *. (2.0 ** float_of_int n)))
  in
  (float_of_int (r.max_retries + 1) *. r.call_timeout) +. backoffs 0 0.0

type pending =
  | Get of {
      mutable chunks : (Filter.t * Chunk.t) list;  (* Reverse order. *)
      seen : unit Filter.Table.t;  (* Flow ids in [chunks]: O(1) dedup. *)
      on_piece : (Filter.t -> Chunk.t -> unit) option;
      result : ((Filter.t * Chunk.t) list, Op_error.t) result Proc.Ivar.t;
    }
  | Write of (unit, Op_error.t) result Proc.Ivar.t

type event_sub = {
  es_nf : string;
  es_filter : Filter.t;
  es_callback : Packet.t -> Protocol.event_action -> unit;
}

type pkt_in_sub = {
  ps_filter : Filter.t;
  ps_callback : Packet.t -> unit;
}

(* Inbound messages funneled through the serial controller CPU. *)
type inbound =
  | From_nf of Protocol.reply
  | From_switch of Switch.from_switch

(* An NF record carries its [home] shard: the controller instance whose
   channels, request-id namespace and pending table serve this NF. All
   NF-directed calls route through [nf.home], so an operation led by one
   shard transparently reaches instances owned by another (the cross-
   shard handshake in {!Shard} only has to arbitrate admission, not
   plumbing). With one shard, [home] is physically the only controller
   and every path below is byte-identical to the unsharded code. *)
type nf = {
  nf_name : string;
  to_nf : Protocol.request Channel.t;
  runtime : Runtime.t;
  backend : Backend.t option;
  home : t;
  mutable misses : int;  (** Consecutive missed call deadlines. *)
  mutable live : bool;
}

and t = {
  engine : Engine.t;
  audit : Audit.t;
  switch : Switch.t;
  config : config;
  resilience : resilience option;
  faults : Faults.t option;
  shard : int;  (** This instance's shard id, 0 .. shards-1. *)
  shards : int;  (** Shard count of the control plane this belongs to. *)
  mutable peers : t array;
      (** The full shard group, set by {!set_group}; [[||]] = just us. *)
  to_switch : Switch.to_switch Channel.t;
  inbox : (inbound * int) Proc.Mailbox.t;  (* message, wire size *)
  nfs : (string, nf) Hashtbl.t;
  pending : pending Int_table.t;
  barriers : unit Proc.Ivar.t Int_table.t;
  event_subs : event_sub Int_table.t;
  pkt_in_subs : pkt_in_sub Int_table.t;
  route_cookies : int Filter.Table.t;
  final_cookies : int Filter.Table.t;
  mutable on_death : (string -> unit) list;
  mutable next_req : int;
  mutable next_barrier : int;
  mutable next_cookie : int;
  mutable next_sub : int;
  mutable handled : int;
  mutable op_parent : int;
      (** Ambient parent span for the next op started on this shard: the
          scheduler stamps its entry's span here just before running the
          admitted body, and {!Op_engine.start} consumes it, linking the
          op span under its scheduler span (queue-wait attribution).
          Safe as an ambient: procs are cooperative and the consume
          happens before the op's first blocking point. 0 = unlinked. *)
  trace : Opennf_obs.Trace.t;
  m_requests : Opennf_obs.Metrics.counter;
  m_request_bytes : Opennf_obs.Metrics.counter;
  m_retries : Opennf_obs.Metrics.counter;
  m_dup_pieces : Opennf_obs.Metrics.counter;
  m_handled : Opennf_obs.Metrics.counter option;
      (** Per-shard inbound-message counter; only registered when
          [shards > 1] so single-shard metric snapshots are unchanged. *)
}

(* A subscription names the shard(s) actually holding the entry: event
   subscriptions live on the NF's home shard, packet-in subscriptions on
   every shard (packet-ins are routed to shards by flow hash, and a
   wildcard subscription must see all of them). *)
type subscription = (t * int) list

let base_priority = 100
let move_final_priority = 150
let phase1_priority = 200
let phase2_priority = 300

let engine t = t.engine
let obs t = Engine.obs t.engine
let audit t = t.audit
let messages_handled t = t.handled
let resilience t = t.resilience
let shard_id t = t.shard
let shard_count t = t.shards

let metric_suffix t =
  if t.shards <= 1 then "" else Printf.sprintf ".shard%d" t.shard

let set_op_parent t span = t.op_parent <- span

let take_op_parent t =
  let span = t.op_parent in
  t.op_parent <- 0;
  span

(* The shard group. Before {!set_group} (and always at [shards = 1]) a
   controller is its own whole group. *)
let group t = if Array.length t.peers = 0 then [| t |] else t.peers

let set_group peers =
  if Array.length peers = 0 then invalid_arg "Controller.set_group: empty";
  Array.iter (fun p -> p.peers <- peers) peers

(* Subscriptions live in hashtables so unsubscribe is O(1); dispatch
   still visits them in subscription (id) order for determinism. *)
let iter_subs tbl f =
  Int_table.fold (fun id sub acc -> (id, sub) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, sub) -> f sub)

let rec dispatch_reply t (reply : Protocol.reply) =
  match reply with
  | Protocol.Piece { req; flowid; chunk } -> (
    match Int_table.find_opt t.pending req with
    | Some (Get g) ->
      (* A retried or duplicated streaming get may replay a piece;
         idempotent request ids mean replays are ignored. *)
      if not (Filter.Table.mem g.seen flowid) then begin
        Filter.Table.replace g.seen flowid ();
        g.chunks <- (flowid, chunk) :: g.chunks;
        Option.iter (fun f -> f flowid chunk) g.on_piece
      end
      else Opennf_obs.Metrics.incr t.m_dup_pieces
    | Some (Write _) | None -> ())
  | Protocol.Done { req; chunks } -> (
    match Int_table.find_opt t.pending req with
    | Some (Get g) ->
      Int_table.remove t.pending req;
      ignore
        (Proc.Ivar.fill_if_empty g.result (Ok (List.rev g.chunks @ chunks)))
    | Some (Write _) | None -> ())
  | Protocol.Ack { req } -> (
    match Int_table.find_opt t.pending req with
    | Some (Write ivar) ->
      Int_table.remove t.pending req;
      ignore (Proc.Ivar.fill_if_empty ivar (Ok ()))
    | Some (Get _) | None -> ())
  | Protocol.Event { nf; packet; disposition } ->
    iter_subs t.event_subs (fun sub ->
        if
          String.equal sub.es_nf nf
          && Filter.matches_flow sub.es_filter packet.Packet.key
        then sub.es_callback packet disposition)
  | Protocol.Batch_reply { items } ->
    (* One inbound message, one msg_cost charge in [cpu_loop]; the
       members dispatch in send order. *)
    List.iter (dispatch_reply t) items

let dispatch t msg =
  match msg with
  | From_nf reply -> dispatch_reply t reply
  | From_switch (Switch.Packet_in { packet; cookie = _ }) ->
    iter_subs t.pkt_in_subs (fun sub ->
        if Filter.matches_flow sub.ps_filter packet.Packet.key then
          sub.ps_callback packet)
  | From_switch (Switch.Barrier_reply { id }) -> (
    match Int_table.find_opt t.barriers id with
    | Some ivar ->
      Int_table.remove t.barriers id;
      Proc.Ivar.fill ivar ()
    | None -> ())

let cpu_loop t () =
  let rec loop () =
    let msg, size = Proc.Mailbox.recv t.inbox in
    Proc.sleep
      (t.config.msg_cost +. (t.config.msg_cost_per_byte *. float_of_int size));
    t.handled <- t.handled + 1;
    (match t.m_handled with
    | Some c -> Opennf_obs.Metrics.incr c
    | None -> ());
    dispatch t msg;
    loop ()
  in
  loop ()

let create engine audit ~switch ?(config = default_config) ?faults ?resilience
    ?(shard = 0) ?(shards = 1) () =
  if shards < 1 then invalid_arg "Controller.create: shards must be >= 1";
  if shard < 0 || shard >= shards then
    invalid_arg "Controller.create: shard out of range";
  (* At [shards = 1] every name below (channels, metrics) is exactly the
     single-controller name, so seeded runs stay byte-identical. *)
  let sw_out_name =
    if shards <= 1 then "ctrl->sw" else Printf.sprintf "ctrl%d->sw" shard
  in
  let sw_in_name =
    if shards <= 1 then "sw->ctrl" else Printf.sprintf "sw->ctrl%d" shard
  in
  let msuf = if shards <= 1 then "" else Printf.sprintf ".shard%d" shard in
  let to_switch =
    Channel.create engine ~latency:config.sw_latency
      ?bandwidth:config.sw_bandwidth ?faults ~name:sw_out_name ()
  in
  let hub = Engine.obs engine in
  let metrics = Opennf_obs.Hub.metrics hub in
  let t =
    {
      engine;
      audit;
      switch;
      config;
      resilience;
      faults;
      shard;
      shards;
      peers = [||];
      to_switch;
      inbox = Proc.Mailbox.create engine;
      nfs = Hashtbl.create 16;
      pending = Int_table.create 64;
      barriers = Int_table.create 16;
      event_subs = Int_table.create 16;
      pkt_in_subs = Int_table.create 16;
      route_cookies = Filter.Table.create 64;
      final_cookies = Filter.Table.create 64;
      on_death = [];
      next_req = 0;
      next_barrier = 0;
      next_cookie = 1;
      next_sub = 0;
      handled = 0;
      op_parent = 0;
      trace = Opennf_obs.Hub.trace hub;
      m_requests = Opennf_obs.Metrics.counter metrics ("sb.requests" ^ msuf);
      m_request_bytes =
        Opennf_obs.Metrics.counter metrics ("sb.request_bytes" ^ msuf);
      m_retries = Opennf_obs.Metrics.counter metrics ("ctrl.retries" ^ msuf);
      m_dup_pieces =
        Opennf_obs.Metrics.counter metrics ("ctrl.dup_pieces" ^ msuf);
      m_handled =
        (if shards <= 1 then None
         else Some (Opennf_obs.Metrics.counter metrics ("ctrl.handled" ^ msuf)));
    }
  in
  let from_switch =
    Channel.create engine ~latency:config.sw_latency ?faults ~name:sw_in_name ()
  in
  Channel.set_handler_with_size from_switch (fun msg size ->
      Proc.Mailbox.send t.inbox (From_switch msg, size));
  (* Our connection id: barrier replies come back on it, and our
     flow-mods are fenced per connection (OpenFlow barrier semantics),
     so shard barriers never wait on another shard's installs. *)
  let conn = Switch.register_controller switch from_switch in
  Channel.set_handler to_switch (Switch.control_from switch ~conn);
  Proc.spawn engine (cpu_loop t);
  t

let attach ?backend t runtime =
  let name = Runtime.name runtime in
  let backend =
    match backend with Some _ -> backend | None -> Runtime.backend runtime
  in
  let to_nf =
    Channel.create t.engine ~latency:t.config.nf_latency ?faults:t.faults
      ~name:("ctrl->" ^ name) ()
  in
  Channel.set_handler to_nf (Runtime.control runtime);
  let from_nf =
    Channel.create t.engine ~latency:t.config.nf_latency ?faults:t.faults
      ~name:(name ^ "->ctrl") ()
  in
  Channel.set_handler_with_size from_nf (fun reply size ->
      Proc.Mailbox.send t.inbox (From_nf reply, size));
  Runtime.set_controller runtime from_nf;
  Runtime.bind_shard runtime t.shard;
  let nf =
    { nf_name = name; to_nf; runtime; backend; home = t; misses = 0; live = true }
  in
  Hashtbl.replace t.nfs name nf;
  (match t.config.sb_batch_bytes with
  | None -> ()
  | Some bytes ->
    let msg = Protocol.Set_batching { bytes = Some bytes } in
    Channel.send to_nf ~size:(Protocol.request_size msg) msg);
  nf

let nf_name nf = nf.nf_name
let nf_home nf = nf.home
let nf_shard nf = nf.home.shard

let find_nf t name =
  match Hashtbl.find_opt t.nfs name with
  | Some _ as r -> r
  | None ->
    let peers = group t in
    let rec scan i =
      if i >= Array.length peers then None
      else if peers.(i) == t then scan (i + 1)
      else
        match Hashtbl.find_opt peers.(i).nfs name with
        | Some _ as r -> r
        | None -> scan (i + 1)
    in
    scan 0

(* The shard whose tables serve [name]: its home if attached anywhere,
   else the asking shard (subscriptions to not-yet-attached names stay
   local, as before). *)
let home_of_name t name =
  if Hashtbl.mem t.nfs name then t
  else begin
    let peers = group t in
    let rec scan i =
      if i >= Array.length peers then t
      else if Hashtbl.mem peers.(i).nfs name then peers.(i)
      else scan (i + 1)
    in
    scan 0
  end

let backend_of nf = nf.backend

(* Resolve how state labelled [scope] actually gets from [src] to [dst]:
   the classic bulk transfer, nothing at all (both instances read the
   same backend), or a drain of the replication stream already carrying
   it. The no-backend answer is [`Transfer] by construction, so fabrics
   that never attach a backend take exactly the legacy path. *)
let state_path _t ~src ~dst ~scope =
  match (src.backend, dst.backend) with
  | Some sb, Some db when Backend.same_store sb db && Backend.covers sb scope
    ->
    `Same_store
  | Some sb, Some db
    when Backend.replica_pair ~primary:sb ~standby:db
         && Backend.covers sb scope ->
    `Replicated sb
  | _ -> `Transfer

(* --- liveness monitor ---------------------------------------------------- *)

let nf_alive _t nf = nf.live

(* Death callbacks register on every shard: a watcher (failover app,
   operation rollback) holds whichever controller it was built on, but
   the NF that dies fires its *home* shard's list. *)
let on_nf_death t f =
  Array.iter (fun p -> p.on_death <- f :: p.on_death) (group t)

(* The liveness verdict; idempotent. *)
let declare_nf_dead _t nf =
  let t = nf.home in
  if nf.live then begin
    nf.live <- false;
    (* Callbacks may run blocking operations (reroutes); give each its
       own process. *)
    List.iter
      (fun f -> Proc.spawn t.engine (fun () -> f nf.nf_name))
      (List.rev t.on_death)
  end

let note_deadline_miss t nf r =
  nf.misses <- nf.misses + 1;
  if nf.misses >= r.liveness_misses then declare_nf_dead t nf

let send_request _t nf req =
  (* Route through the NF's home shard: its trace/metrics handles are
     the ones labelled with the owning shard. *)
  let t = nf.home in
  let size = Protocol.request_size req in
  Opennf_obs.Metrics.incr t.m_requests;
  Opennf_obs.Metrics.add t.m_request_bytes size;
  if Opennf_obs.Trace.enabled t.trace then
    Opennf_obs.Trace.instant t.trace ~cat:"sb"
      ~name:(Protocol.request_kind req)
      ~attrs:
        [|
          ("nf", Opennf_obs.Trace.Str nf.nf_name);
          ("bytes", Opennf_obs.Trace.Int size);
        |]
      ();
  Channel.send nf.to_nf ~size req

let fresh_req t =
  let r = t.next_req in
  t.next_req <- t.next_req + 1;
  r

(* Watch one outstanding call: wake at the deadline, resend with
   exponential backoff, and fail the result ivar with a typed error once
   the NF is declared dead or retries are exhausted. Replies that arrive
   after a resend hit the same request id, so duplicates are ignored by
   the pending table and [fill_if_empty]. *)
let supervise t nf ~req ~result ~resend r =
  Proc.spawn t.engine (fun () ->
      let rec attempt n =
        match Proc.Ivar.read_timeout result ~timeout:r.call_timeout with
        | Some _ -> nf.misses <- 0
        | None ->
          note_deadline_miss t nf r;
          if not nf.live then begin
            Int_table.remove t.pending req;
            ignore
              (Proc.Ivar.fill_if_empty result
                 (Error (Op_error.Nf_crashed { nf = nf.nf_name })))
          end
          else if n >= r.max_retries then begin
            Int_table.remove t.pending req;
            ignore
              (Proc.Ivar.fill_if_empty result
                 (Error
                    (Op_error.Timeout { nf = nf.nf_name; after = call_budget r })))
          end
          else begin
            Proc.sleep (r.backoff *. (2.0 ** float_of_int n));
            Opennf_obs.Metrics.incr t.m_retries;
            if Opennf_obs.Trace.enabled t.trace then
              Opennf_obs.Trace.instant t.trace ~cat:"sb" ~name:"retry"
                ~attrs:
                  [|
                    ("nf", Opennf_obs.Trace.Str nf.nf_name);
                    ("attempt", Opennf_obs.Trace.Int (n + 1));
                  |]
                ();
            resend ();
            attempt (n + 1)
          end
      in
      attempt 0)

(* --- the scope-indexed southbound API ------------------------------------ *)

let enable_events _t nf filter action =
  send_request nf.home nf (Protocol.Enable_events { filter; action })

let disable_events _t nf filter =
  send_request nf.home nf (Protocol.Disable_events { filter })

let dead_result t err =
  let ivar = Proc.Ivar.create t.engine in
  Proc.Ivar.fill ivar (Error err);
  ivar

let start_call t nf ~req ~request ~pending_entry ~result =
  (* Request ids come from one shared counter, so two in-flight calls can
     never share a pending slot; a collision here means an id was reused
     and replies would be mis-routed — fail loudly instead. *)
  if Int_table.mem t.pending req then
    invalid_arg
      (Printf.sprintf "Controller: duplicate in-flight request id %d" req);
  Int_table.replace t.pending req pending_entry;
  send_request t nf request;
  match t.resilience with
  | None -> ()
  | Some r ->
    supervise t nf ~req ~result ~resend:(fun () -> send_request t nf request) r

let get_async _t nf ~scope ?on_piece ?(late_lock = false) ?(compress = false)
    filter =
  let t = nf.home in
  if not nf.live then
    dead_result t (Op_error.Nf_crashed { nf = nf.nf_name })
  else begin
    let req = fresh_req t in
    let stream = Option.is_some on_piece in
    let request =
      match (scope : Scope.t) with
      | Scope.Per ->
        Protocol.Get_perflow { req; filter; stream; late_lock; compress }
      | Scope.Multi -> Protocol.Get_multiflow { req; filter; stream; compress }
      | Scope.All -> Protocol.Get_allflows { req }
    in
    let result = Proc.Ivar.create t.engine in
    start_call t nf ~req ~request
      ~pending_entry:
        (Get { chunks = []; seen = Filter.Table.create 16; on_piece; result })
      ~result;
    result
  end

let put_async _t nf ~scope chunks =
  let t = nf.home in
  if not nf.live then
    dead_result t (Op_error.Nf_crashed { nf = nf.nf_name })
  else begin
    let req = fresh_req t in
    let request =
      match (scope : Scope.t) with
      | Scope.Per -> Protocol.Put_perflow { req; chunks }
      | Scope.Multi -> Protocol.Put_multiflow { req; chunks }
      | Scope.All -> Protocol.Put_allflows { req; chunks = List.map snd chunks }
    in
    let result = Proc.Ivar.create t.engine in
    start_call t nf ~req ~request ~pending_entry:(Write result) ~result;
    result
  end

let del_async _t nf ~scope flowids =
  let t = nf.home in
  match (scope : Scope.t) with
  | Scope.All ->
    (* All-flows state is always relevant; there is no delAllflows (§4.2). *)
    dead_result t
      (Op_error.Bad_spec { reason = "del is undefined for all-flows scope" })
  | Scope.Per | Scope.Multi ->
    if not nf.live then
      dead_result t (Op_error.Nf_crashed { nf = nf.nf_name })
    else begin
      let req = fresh_req t in
      let request =
        match (scope : Scope.t) with
        | Scope.Per -> Protocol.Del_perflow { req; flowids }
        | Scope.Multi | Scope.All -> Protocol.Del_multiflow { req; flowids }
      in
      let result = Proc.Ivar.create t.engine in
      start_call t nf ~req ~request ~pending_entry:(Write result) ~result;
      result
    end

let get t nf ~scope ?on_piece ?late_lock ?compress filter =
  Proc.Ivar.read (get_async t nf ~scope ?on_piece ?late_lock ?compress filter)

let put t nf ~scope chunks = Proc.Ivar.read (put_async t nf ~scope chunks)
let del t nf ~scope flowids = Proc.Ivar.read (del_async t nf ~scope flowids)

let probe_async _t nf =
  let t = nf.home in
  if not nf.live then
    dead_result t (Op_error.Nf_crashed { nf = nf.nf_name })
  else begin
    let req = fresh_req t in
    let request = Protocol.Ping { req } in
    let result = Proc.Ivar.create t.engine in
    start_call t nf ~req ~request ~pending_entry:(Write result) ~result;
    result
  end

let start_probes_local t r ~until =
  Proc.spawn t.engine (fun () ->
      let rec loop () =
        Proc.sleep r.probe_period;
        if Engine.now t.engine <= until then begin
          (* Probe in name order for determinism; supervision marks
             misses and flips liveness. *)
          Hashtbl.fold (fun name _ acc -> name :: acc) t.nfs []
          |> List.sort String.compare
          |> List.iter (fun name ->
                 let nf = Hashtbl.find t.nfs name in
                 if nf.live then ignore (probe_async t nf));
          loop ()
        end
      in
      loop ())

(* The liveness monitor is per-shard by design: each shard probes only
   the NFs it owns (one heartbeat process per shard, over its own
   channels), so arming it from any member covers the whole group. *)
let start_probes t ~until =
  match t.resilience with
  | None ->
    invalid_arg "Controller.start_probes: no resilience config installed"
  | Some _ ->
    Array.iter
      (fun p ->
        match p.resilience with
        | Some r -> start_probes_local p r ~until
        | None -> ())
      (group t)

(* --- subscriptions ------------------------------------------------------- *)

let fresh_sub t =
  let s = t.next_sub in
  t.next_sub <- t.next_sub + 1;
  s

(* Events from an NF arrive at its home shard's inbox, so the entry must
   live in the home shard's table — wherever the subscriber got its
   controller handle. *)
let subscribe_events t ~nf filter callback =
  let h = home_of_name t nf in
  let id = fresh_sub h in
  Int_table.replace h.event_subs id
    { es_nf = nf; es_filter = filter; es_callback = callback };
  [ (h, id) ]

(* Packet-ins are routed to shards by flow hash, and a subscription
   filter may span many shards' flowspace — register on every shard.
   Each shard burns one sub id, in the same group order on every run,
   so dispatch order stays deterministic. *)
let subscribe_packet_in t filter callback =
  Array.to_list (group t)
  |> List.map (fun p ->
         let id = fresh_sub p in
         Int_table.replace p.pkt_in_subs id
           { ps_filter = filter; ps_callback = callback };
         (p, id))

(* Sub ids are unique across both tables, so removing from both is safe. *)
let unsubscribe _t subs =
  List.iter
    (fun (p, id) ->
      Int_table.remove p.event_subs id;
      Int_table.remove p.pkt_in_subs id)
    subs

(* --- forwarding state ----------------------------------------------------- *)

(* Cookies are strided by shard ([c * shards + shard]) so concurrent
   shards can never mint the same cookie and silently replace each
   other's rules in the shared table — and [cookie mod shards] names the
   owning shard, which is what {!Switch.slice_rule_counts} counts. With
   one shard this is the identity on the legacy sequence 1, 2, 3, … *)
let fresh_cookie t =
  let c = t.next_cookie in
  t.next_cookie <- t.next_cookie + 1;
  if t.shards <= 1 then c else (c * t.shards) + t.shard

let install_rule t ~cookie ~priority ~filters ~actions =
  Channel.send t.to_switch ~size:128
    (Switch.Install { cookie; priority; filters; actions })

let remove_rule t ~cookie =
  Channel.send t.to_switch ~size:128 (Switch.Remove { cookie })

(* Barrier ids are a separate namespace from southbound request ids:
   they are matched in [t.barriers], never in [t.pending], so sharing
   the request counter would only invite confusion. *)
let barrier t =
  let id = t.next_barrier in
  t.next_barrier <- t.next_barrier + 1;
  let ivar = Proc.Ivar.create t.engine in
  Int_table.replace t.barriers id ivar;
  Channel.send t.to_switch ~size:128 (Switch.Barrier { id });
  Proc.Ivar.read ivar

let packet_out t ~port packet =
  Channel.send t.to_switch ~size:(128 + packet.Packet.wire_size)
    (Switch.Packet_out { port; packet })

let rule_filters filter =
  if Filter.is_symmetric filter then [ filter ]
  else [ filter; Filter.mirror filter ]

let memo_cookie t tbl filter =
  match Filter.Table.find_opt tbl filter with
  | Some c -> c
  | None ->
    let c = fresh_cookie t in
    Filter.Table.replace tbl filter c;
    c

let set_route t filter nf =
  let cookie = memo_cookie t t.route_cookies filter in
  install_rule t ~cookie ~priority:base_priority ~filters:(rule_filters filter)
    ~actions:[ Flowtable.Forward nf.nf_name ];
  barrier t

(* One stable cookie per filter for move-final routes: repeated moves of
   the same flows replace the previous final rule instead of piling up a
   rule per reallocation. *)
let final_route_cookie t filter = memo_cookie t t.final_cookies filter
