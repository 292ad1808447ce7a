module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Arena = Opennf_util.Arena
module Pfa = Store.Perflow_arena
open Opennf_net

type kind = Local | Shared | Replicated
type role = Sole | Primary | Standby | Promoted

type stats = {
  frames_sent : int;
  entries_sent : int;
  delta_bytes : int;
  frames_applied : int;
  entries_applied : int;
  dup_frames : int;
  gap_frames : int;
  stale_frames : int;
}

let zero_stats =
  {
    frames_sent = 0;
    entries_sent = 0;
    delta_bytes = 0;
    frames_applied = 0;
    entries_applied = 0;
    dup_frames = 0;
    gap_frames = 0;
    stale_frames = 0;
  }

type entry = {
  e_scope : Scope.t;
  e_flowid : Filter.t;
  e_chunk : Chunk.t option;  (* None propagates a deletion. *)
}

type frame_msg = { seq : int; sent_at : float; entries : entry list }

(* Wire-size model of a frame: matches the southbound protocol's framing
   costs so delta traffic and get/put traffic are comparable byte for
   byte (a flowid plus message framing, then the chunk payload). *)
let frame_overhead = 16
let entry_overhead = 32
let entry_size e =
  entry_overhead + match e.e_chunk with None -> 0 | Some c -> Chunk.size c

type binding = B : 'a Type.Id.t * 'a -> binding

type link = {
  engine : Engine.t;
  chan : frame_msg Channel.t;
  batch_bytes : int option;
  mutable sent_seq : int;
  mutable applied_seq : int;
  (* Delta counters, bumped in place per frame; {!stats} snapshots them
     into the public record only when asked. *)
  mutable frames_sent : int;
  mutable entries_sent : int;
  mutable delta_bytes : int;
  mutable frames_applied : int;
  mutable entries_applied : int;
  mutable dup_frames : int;
  mutable gap_frames : int;
  mutable stale_frames : int;
  mutable waiters : (int * unit Proc.Ivar.t) list;  (* seq awaited *)
  (* The frame being assembled, newest entry first, and its wire size
     (frame overhead included). Empty between packets. *)
  mutable pending : entry list;
  mutable pending_bytes : int;
  m_bytes : Opennf_obs.Metrics.counter;
  m_frames : Opennf_obs.Metrics.counter;
  m_entries : Opennf_obs.Metrics.counter;
  m_dup : Opennf_obs.Metrics.counter;
  m_lag : Opennf_obs.Metrics.hist;
}

type t = {
  kind : kind;
  name : string;
  stores : (string, binding) Hashtbl.t;
  link : link option;
  mutable role : role;
  mutable peer : t option;
  mutable exporter : (Scope.t -> Filter.t -> Chunk.t option) option;
  mutable applier : (Scope.t -> Filter.t -> Chunk.t option -> unit) option;
  (* Keys the standby has been sent, so a later disappearance at the
     primary is propagated as a delete (and never-sent keys are not).
     Per-flow flowids are directed, so a connection's row records each
     direction in its one payload byte: [canonical_sent] when the
     canonical key's flowid was sent, [reverse_sent] when its
     reverse's. A row lives while either bit is set. *)
  sent_flows : Pfa.t;
  sent_hosts : unit Store.Per_host.t;
}

let canonical_sent = 1
let reverse_sent = 2

let kind t = t.kind
let role t = t.role
let name t = t.name

let mk ?(name = "backend") kind role link =
  {
    kind;
    name;
    stores = Hashtbl.create 8;
    link;
    role;
    peer = None;
    exporter = None;
    applier = None;
    sent_flows = Pfa.create ~payload:1 ();
    sent_hosts = Store.Per_host.create ();
  }

let local ?name () = mk ?name Local Sole None
let shared ?name () = mk ?name Shared Sole None

(* --- standby side --------------------------------------------------------- *)

let release_waiters l upto =
  let ready, waiting = List.partition (fun (seq, _) -> seq <= upto) l.waiters in
  l.waiters <- waiting;
  List.iter (fun (_, iv) -> Proc.Ivar.fill iv ()) ready

let apply_frame t (fr : frame_msg) =
  match t.link with
  | None -> ()
  | Some l ->
    if t.role = Promoted then l.stale_frames <- l.stale_frames + 1
    else if fr.seq <= l.applied_seq then begin
      (* Channel duplication (or a replayed frame): already applied. *)
      l.dup_frames <- l.dup_frames + 1;
      Opennf_obs.Metrics.incr l.m_dup
    end
    else begin
      if fr.seq > l.applied_seq + 1 then l.gap_frames <- l.gap_frames + 1;
      (match t.applier with
      | None -> ()
      | Some apply ->
        List.iter (fun e -> apply e.e_scope e.e_flowid e.e_chunk) fr.entries);
      l.applied_seq <- fr.seq;
      l.frames_applied <- l.frames_applied + 1;
      l.entries_applied <- l.entries_applied + List.length fr.entries;
      Opennf_obs.Metrics.observe l.m_lag (Engine.now l.engine -. fr.sent_at);
      release_waiters l l.applied_seq
    end

let replicated_pair engine ?name ?(latency = 0.002) ?bandwidth ?batch_bytes
    ?faults () =
  let base = Option.value name ~default:"backend" in
  let chan =
    Channel.create engine ~latency ?bandwidth ?faults
      ~name:(base ^ ".delta") ()
  in
  let metrics = Opennf_obs.Hub.metrics (Engine.obs engine) in
  let link =
    {
      engine;
      chan;
      batch_bytes;
      sent_seq = 0;
      applied_seq = 0;
      frames_sent = 0;
      entries_sent = 0;
      delta_bytes = 0;
      frames_applied = 0;
      entries_applied = 0;
      dup_frames = 0;
      gap_frames = 0;
      stale_frames = 0;
      waiters = [];
      pending = [];
      pending_bytes = frame_overhead;
      m_bytes = Opennf_obs.Metrics.counter metrics "backend.delta.bytes";
      m_frames = Opennf_obs.Metrics.counter metrics "backend.delta.frames";
      m_entries = Opennf_obs.Metrics.counter metrics "backend.delta.entries";
      m_dup = Opennf_obs.Metrics.counter metrics "backend.delta.dup_frames";
      m_lag = Opennf_obs.Metrics.hist metrics "backend.delta.lag_s";
    }
  in
  let primary = mk ?name Replicated Primary (Some link) in
  let standby = mk ?name Replicated Standby (Some link) in
  primary.peer <- Some standby;
  standby.peer <- Some primary;
  Channel.set_handler chan (apply_frame standby);
  (primary, standby)

(* --- store registry ------------------------------------------------------- *)

let get_store (type a) t ~name ~(id : a Type.Id.t) ~make : a =
  match Hashtbl.find_opt t.stores name with
  | Some (B (id', v)) -> (
    match Type.Id.provably_equal id' id with
    | Some Type.Equal -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Backend.get_store: %S registered with another type"
           name))
  | None ->
    let v = make () in
    Hashtbl.replace t.stores name (B (id, v));
    v

(* --- primary side --------------------------------------------------------- *)

let set_exporter t f = t.exporter <- Some f
let set_applier t f = t.applier <- Some f

let send_pending l =
  match l.pending with
  | [] -> ()
  | entries_rev ->
    let entries = List.rev entries_rev in
    let n = List.length entries in
    let size = l.pending_bytes in
    l.pending <- [];
    l.pending_bytes <- frame_overhead;
    l.sent_seq <- l.sent_seq + 1;
    l.frames_sent <- l.frames_sent + 1;
    l.entries_sent <- l.entries_sent + n;
    l.delta_bytes <- l.delta_bytes + size;
    Opennf_obs.Metrics.incr l.m_frames;
    Opennf_obs.Metrics.add l.m_entries n;
    Opennf_obs.Metrics.add l.m_bytes size;
    Channel.send l.chan ~size
      { seq = l.sent_seq; sent_at = Engine.now l.engine; entries }

(* Append [e] to the pending frame, first sending that frame if [e]
   would push a non-empty one past the byte budget. *)
let push l e =
  let sz = entry_size e in
  (match (l.batch_bytes, l.pending) with
  | Some budget, _ :: _ when l.pending_bytes + sz > budget -> send_pending l
  | _ -> ());
  l.pending <- e :: l.pending;
  l.pending_bytes <- l.pending_bytes + sz

(* Export one key's current value into the pending frame. A key that no
   longer exists becomes a delete only if the standby was sent it. *)
let export_flow t l export key =
  let flowid = Filter.of_key key in
  let bit = if Flow.is_canonical key then canonical_sent else reverse_sent in
  let a = Pfa.arena t.sent_flows in
  match export Scope.Per flowid with
  | Some chunk ->
    let i = Arena.index a (Pfa.insert t.sent_flows key) in
    let b = Arena.slab a i and o = Arena.offset a i + Pfa.payload_off in
    Bytes.set_uint8 b o (Bytes.get_uint8 b o lor bit);
    push l { e_scope = Scope.Per; e_flowid = flowid; e_chunk = Some chunk }
  | None ->
    let h = Pfa.find t.sent_flows key in
    if h <> Arena.null then begin
      let i = Arena.index a h in
      let b = Arena.slab a i and o = Arena.offset a i + Pfa.payload_off in
      let bits = Bytes.get_uint8 b o in
      if bits land bit <> 0 then begin
        if bits = bit then ignore (Pfa.remove t.sent_flows key)
        else Bytes.set_uint8 b o (bits lxor bit);
        push l { e_scope = Scope.Per; e_flowid = flowid; e_chunk = None }
      end
    end

let export_host t l export ip =
  let flowid = Filter.of_src_host ip in
  match export Scope.Multi flowid with
  | Some chunk ->
    Store.Per_host.set t.sent_hosts ip ();
    push l { e_scope = Scope.Multi; e_flowid = flowid; e_chunk = Some chunk }
  | None -> (
    match Store.Per_host.find t.sent_hosts ip with
    | Some () ->
      Store.Per_host.remove t.sent_hosts ip;
      push l { e_scope = Scope.Multi; e_flowid = flowid; e_chunk = None }
    | None -> ())

let note_packet t (key : Flow.key) =
  match (t.role, t.link, t.exporter) with
  | Primary, Some l, Some export ->
    export_flow t l export key;
    export_host t l export key.Flow.src_ip;
    if not (Ipaddr.equal key.Flow.dst_ip key.Flow.src_ip) then
      export_host t l export key.Flow.dst_ip;
    send_pending l
  | _ -> ()

let drain t =
  match (t.role, t.link) with
  | Primary, Some l when l.applied_seq < l.sent_seq ->
    let iv = Proc.Ivar.create l.engine in
    l.waiters <- (l.sent_seq, iv) :: l.waiters;
    Proc.Ivar.read iv
  | _ -> ()

let promote t =
  match t.link with
  | Some l when t.role = Standby ->
    t.role <- Promoted;
    release_waiters l max_int
  | _ -> ()

(* --- routing predicates --------------------------------------------------- *)

let same_store a b = a == b && a.kind <> Replicated

let replica_pair ~primary ~standby =
  primary.role = Primary && standby.role = Standby
  && match primary.peer with Some p -> p == standby | None -> false

let covers t scope =
  match t.kind with
  | Local | Shared -> true
  | Replicated -> ( match (scope : Scope.t) with
    | Scope.Per | Scope.Multi -> true
    | Scope.All -> false)

let stats t =
  match t.link with
  | None -> zero_stats
  | Some l ->
    {
      frames_sent = l.frames_sent;
      entries_sent = l.entries_sent;
      delta_bytes = l.delta_bytes;
      frames_applied = l.frames_applied;
      entries_applied = l.entries_applied;
      dup_frames = l.dup_frames;
      gap_frames = l.gap_frames;
      stale_frames = l.stale_frames;
    }

let delta_bytes t = match t.link with None -> 0 | Some l -> l.delta_bytes
