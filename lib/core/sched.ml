module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
open Opennf_net

module Footprint = struct
  type t = {
    filters : Filter.t list;
    reads : string list;
    writes : string list;
    routes : bool;
    mutable released : Flow.key list;
  }

  let make ?(filters = []) ?(reads = []) ?(writes = []) ?(routes = false) () =
    { filters; reads; writes; routes; released = [] }

  let names_intersect a b = List.exists (fun x -> List.mem x b) a

  (* Do the two footprints touch a common resource in a way where order
     matters? Read/read never conflicts; everything else does. *)
  let resources_clash a b =
    (a.routes && b.routes)
    || names_intersect a.writes b.writes
    || names_intersect a.writes b.reads
    || names_intersect a.reads b.writes

  (* A candidate filter pinned to a flow the holder has already released
     (early release: its chunk landed at the destination) is exempt —
     that flow's state is no longer covered by the holder. *)
  let filters_clash ~held ~cand =
    List.exists
      (fun cf ->
        let exempt =
          match Filter.exact_key cf with
          | Some k -> List.exists (Flow.equal (Flow.canonical k)) held.released
          | None -> false
        in
        (not exempt)
        && List.exists (fun hf -> Filter.overlaps hf cf) held.filters)
      cand.filters

  (* Conflict = shared resource with a write (or competing route
     updates) AND overlapping flow coverage: two moves between the same
     pair of instances are fine as long as their filters are disjoint. *)
  let conflicts ~held ~cand =
    resources_clash held cand && filters_clash ~held ~cand

  let release held key = held.released <- Flow.canonical key :: held.released
end

type entry = {
  id : int;
  footprint : Footprint.t;
  start : unit -> unit;
  enq_vt : float;  (** Virtual time this entry joined the queue. *)
  span : int;  (** Open "sched" trace span; 0 when not tracing. *)
}

type t = {
  engine : Engine.t;
  ctrl : Controller.t;
  max_concurrent : int;
  mutable active : entry list;  (** Admission order. *)
  mutable waiting : entry list;  (** FIFO, oldest first. *)
  mutable next_id : int;
  mutable admitted : int;
  mutable completed : int;
  mutable peak_active : int;
  mutable peak_waiting : int;
  trace : Opennf_obs.Trace.t;
  m_submitted : Opennf_obs.Metrics.counter;
  m_admitted : Opennf_obs.Metrics.counter;
  g_depth : Opennf_obs.Metrics.gauge;
  h_wait : Opennf_obs.Metrics.hist;
}

type stats = {
  admitted : int;
  completed : int;
  peak_active : int;
  peak_waiting : int;
}

let create ?(max_concurrent = 8) ctrl =
  if max_concurrent < 1 then
    invalid_arg "Sched.create: max_concurrent must be at least 1";
  let obs = Controller.obs ctrl in
  let metrics = Opennf_obs.Hub.metrics obs in
  let sfx = Controller.metric_suffix ctrl in
  {
    engine = Controller.engine ctrl;
    ctrl;
    max_concurrent;
    active = [];
    waiting = [];
    next_id = 0;
    admitted = 0;
    completed = 0;
    peak_active = 0;
    peak_waiting = 0;
    trace = Opennf_obs.Hub.trace obs;
    m_submitted = Opennf_obs.Metrics.counter metrics ("sched.submitted" ^ sfx);
    m_admitted = Opennf_obs.Metrics.counter metrics ("sched.admitted" ^ sfx);
    g_depth = Opennf_obs.Metrics.gauge metrics ("sched.queue_depth" ^ sfx);
    h_wait = Opennf_obs.Metrics.hist metrics ("sched.wait_s" ^ sfx);
  }

let waiting_count t = List.length t.waiting

let stats (t : t) : stats =
  {
    admitted = t.admitted;
    completed = t.completed;
    peak_active = t.peak_active;
    peak_waiting = t.peak_waiting;
  }

let blocked_by fp others =
  List.exists (fun e -> Footprint.conflicts ~held:e.footprint ~cand:fp) others

(* Admission scan, oldest waiter first. An entry is admitted when the
   cap has room and it conflicts with no active operation AND no waiter
   ahead of it in line — the latter keeps admission FIFO per conflict
   class (a newcomer cannot jump a queue it conflicts with) while
   letting it overtake unrelated queues. Entry ids grow monotonically
   and the scan order is fixed, so admission is deterministic. *)
let pump t =
  let rec scan blocked = function
    | [] -> List.rev blocked
    | e :: rest ->
      if List.length t.active >= t.max_concurrent then
        List.rev_append blocked (e :: rest)
      else if
        blocked_by e.footprint t.active || blocked_by e.footprint blocked
      then scan (e :: blocked) rest
      else begin
        t.active <- t.active @ [ e ];
        t.admitted <- t.admitted + 1;
        t.peak_active <- max t.peak_active (List.length t.active);
        Opennf_obs.Metrics.incr t.m_admitted;
        Opennf_obs.Metrics.observe t.h_wait (Engine.now t.engine -. e.enq_vt);
        if e.span <> 0 then
          Opennf_obs.Trace.instant t.trace ~parent:e.span ~cat:"sched"
            ~name:"admit" ();
        e.start ();
        scan blocked rest
      end
  in
  t.waiting <- scan [] t.waiting;
  Opennf_obs.Metrics.set t.g_depth (float_of_int (List.length t.waiting))

let enqueue t entry =
  t.waiting <- t.waiting @ [ entry ];
  t.peak_waiting <- max t.peak_waiting (List.length t.waiting);
  Opennf_obs.Metrics.incr t.m_submitted;
  pump t

let retire t id =
  (match List.find_opt (fun e -> e.id = id) t.active with
  | Some e when e.span <> 0 -> Opennf_obs.Trace.span_close t.trace e.span ()
  | Some _ | None -> ());
  t.active <- List.filter (fun e -> e.id <> id) t.active;
  t.completed <- t.completed + 1;
  pump t

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id

(* The span's conflict-class attribute names what the entry can collide
   on: flow filters, instance reads/writes, and route updates. Built
   only when tracing. *)
let conflict_label (fp : Footprint.t) =
  let parts =
    List.map Filter.to_string fp.Footprint.filters
    @ List.map (fun w -> "w:" ^ w) fp.Footprint.writes
    @ List.map (fun r -> "r:" ^ r) fp.Footprint.reads
  in
  String.concat " " (if fp.Footprint.routes then parts @ [ "routes" ] else parts)

let open_span t ~name footprint =
  if Opennf_obs.Trace.enabled t.trace then begin
    let cls = ("class", Opennf_obs.Trace.Str (conflict_label footprint)) in
    let attrs =
      if Controller.shard_count t.ctrl > 1 then
        [|
          cls;
          ("shard", Opennf_obs.Trace.Int (Controller.shard_id t.ctrl));
        |]
      else [| cls |]
    in
    Opennf_obs.Trace.span_open t.trace ~cat:"sched" ~name ~attrs ()
  end
  else 0

let submit t ~footprint body =
  let id = fresh_id t in
  let span = open_span t ~name:"op" footprint in
  let ivar = Proc.Ivar.create t.engine in
  let start () =
    Proc.spawn t.engine (fun () ->
        (* Hand the entry's span to the op the body is about to start:
           Op_engine.start consumes it before the body's first blocking
           point, so the op span nests under this scheduler span and
           critical-path analysis can attribute the queue wait. *)
        if span <> 0 then Controller.set_op_parent t.ctrl span;
        let result = body () in
        (* Retire (and pump the queue) before resolving the ivar, so
           waiters in line get the slot ahead of whatever the submitter
           does next. *)
        retire t id;
        Proc.Ivar.fill ivar result)
  in
  enqueue t { id; footprint; start; enq_vt = Engine.now t.engine; span };
  ivar

let release_flow t ~footprint key =
  Footprint.release footprint key;
  pump t

(* --- long-lived holds (Share, Notify-style setups) ------------------------ *)

type handle = {
  h_id : int;
  h_footprint : Footprint.t;
  mutable h_held : bool;
}

let acquire t ~footprint =
  let id = fresh_id t in
  let span = open_span t ~name:"hold" footprint in
  let admitted = Proc.Ivar.create t.engine in
  let start () = Proc.Ivar.fill admitted () in
  enqueue t { id; footprint; start; enq_vt = Engine.now t.engine; span };
  Proc.Ivar.read admitted;
  { h_id = id; h_footprint = footprint; h_held = true }

let release t h =
  if h.h_held then begin
    h.h_held <- false;
    retire t h.h_id
  end
