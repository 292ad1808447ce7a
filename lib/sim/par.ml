(* Parallel shard execution: one engine per shard, one domain per
   shard, deterministic cross-engine channels.

   Classic conservative parallel DES. Engines advance in rounds driven
   by a coordinator (the caller's domain). At each round boundary every
   engine is quiescent; the coordinator delivers all buffered
   cross-engine messages in (time, src shard, seq) order, recomputes
   each engine's safe horizon, and releases the engines to step their
   own event queues concurrently up to that horizon.

   The horizon for engine [j] is

     bound(j) = min over i <> j of next(i)

   where next(i) is the time of engine i's earliest pending event
   (infinity when empty). Any message engine [i] emits this round comes
   from an event it processes, so it is stamped >= next(i) >= bound(j):
   engine [j] may process events strictly below bound(j) without ever
   receiving a message in its past — from a peer's own event queue.
   Responses to [j]'s own messages are the second arrival source: the
   channels are zero-latency, so a message [j] posts at time T can draw
   a response stamped T, invisible to every peer's queue until it is
   delivered. The window send cap (see [window]) closes that hole:
   once a window emits a message at its clock T, it finishes the
   events at T and stops, so the engine never runs past a time it
   might hear back about. Ties are handled by the batch rule:
   engines whose next event sits exactly at the global minimum T may
   additionally drain events at exactly T (otherwise an all-tied round
   would make no progress). Messages stamped T that such a batch emits
   are delivered at the next round boundary, again at time T — the
   receiving engine revisits T, which is legal (its clock never runs
   backwards) and deterministic (delivery order is a pure function of
   (time, src, seq), never of domain scheduling).

   Because bound(j) is infinity once every other engine has drained,
   disjoint workloads degenerate to each engine free-running on its own
   domain — the whole point of the exercise.

   Worker mapping is fixed for the life of a run: shard [j] always
   steps on worker [j mod workers], so effect-handler continuations
   captured inside an engine's events are resumed on one consistent
   domain. The mapping affects which core does the work and nothing
   else; results are identical for any worker count, including 1 —
   which is how `dune runtest` exercises this code deterministically on
   a single-core CI runner. *)

module Workers = Opennf_util.Domain_pool.Workers

type msg = {
  m_time : float;
  m_src : int;
  m_seq : int;
  m_dst : int;
  m_run : unit -> unit;
}

type t = {
  engines : Engine.t array;
  outbox : msg list ref array; (* per SRC shard, newest first *)
  seqs : int array; (* per-src message counter, monotone over the run *)
  mutable workers : int; (* worker count used by the last/current run *)
  mutable rounds : int;
  mutable delivered : int;
  mutable active : bool;
}

(* Ambient context: set while a worker steps a shard's window, so that
   [post] called from inside an event knows its source shard (and its
   timestamp — the source engine's clock). *)
let context : (Obj.t * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let create engines =
  if Array.length engines < 1 then invalid_arg "Par.create: no engines";
  {
    engines;
    outbox = Array.init (Array.length engines) (fun _ -> ref []);
    seqs = Array.make (Array.length engines) 0;
    workers = 1;
    rounds = 0;
    delivered = 0;
    active = false;
  }

let shards t = Array.length t.engines
let engine t i = t.engines.(i)
let rounds t = t.rounds
let delivered t = t.delivered
let workers_used t = t.workers

let self t =
  match !(Domain.DLS.get context) with
  | Some (p, src) when p == Obj.repr t -> Some src
  | _ -> None

(* One process-wide helper pool, created on first parallel run and kept
   for the life of the process: fabrics come and go by the hundred in
   the test suite, and the runtime caps the number of domains ever
   spawned, so per-fabric pools would exhaust it. Helpers block when
   idle, so the standing pool costs nothing between runs. *)
let global_pool : Workers.t option ref = ref None

let pool () =
  match !global_pool with
  | Some p -> p
  | None ->
    let p = Workers.create () in
    global_pool := Some p;
    p

let post t ~dst thunk =
  if dst < 0 || dst >= shards t then invalid_arg "Par.post: bad shard";
  match self t with
  | Some src ->
    let seq = t.seqs.(src) in
    t.seqs.(src) <- seq + 1;
    let m =
      {
        m_time = Engine.now t.engines.(src);
        m_src = src;
        m_seq = seq;
        m_dst = dst;
        m_run = thunk;
      }
    in
    t.outbox.(src) := m :: !(t.outbox.(src))
  | None ->
    (* Setup phase (no round in flight): everything runs on one domain,
       so the message can take effect immediately and deterministically. *)
    if t.active then
      invalid_arg "Par.post: cross-engine post from outside any shard window";
    thunk ()

(* A bridged round trip: run [f fill] on [dst]'s engine; [f] eventually
   calls [fill v] (at any later virtual time, from any shard window),
   which completes the ivar back on the caller's engine at that virtual
   time. Must be called from a Proc on the current shard's engine. *)
let call t ~dst f =
  match self t with
  | None -> invalid_arg "Par.call: not inside a shard window"
  | Some src ->
    let iv = Proc.Ivar.create t.engines.(src) in
    post t ~dst (fun () ->
        f (fun v -> post t ~dst:src (fun () -> Proc.Ivar.fill iv v)));
    Proc.Ivar.read iv

let msg_before a b =
  a.m_time < b.m_time
  || (a.m_time = b.m_time
     && (a.m_src < b.m_src || (a.m_src = b.m_src && a.m_seq < b.m_seq)))

(* Step shard [j]'s engine through its window: events strictly below
   [bound], plus the tie batch at exactly [tmin]. New events landing
   inside the window (zero-delay chains) extend it naturally — the
   condition re-peeks after every step.

   The send cap: the channels have zero virtual latency, so a message
   posted at time T can draw a response stamped T. Once this window
   emits its first cross-engine message — at the engine's clock, call
   it T — the engine must not run past T: events at exactly T are still
   safe (a response lands at >= T, and revisiting the current time is
   legal), but anything later would put a possible response in the
   engine's past. [bound] alone cannot see this: it derives from the
   peers' queues, which know nothing of the messages buffered here
   until the next round boundary. *)
let window t j ~bound ~tmin =
  let e = t.engines.(j) in
  let ob = t.outbox.(j) in
  let ctx = Domain.DLS.get context in
  ctx := Some (Obj.repr t, j);
  Fun.protect
    ~finally:(fun () -> ctx := None)
    (fun () ->
      let cap = ref infinity in
      let continue = ref true in
      while !continue do
        let nt = Engine.next_time e in
        if (nt < bound || nt = tmin) && nt <= !cap then begin
          ignore (Engine.step e);
          if !cap = infinity && !ob <> [] then cap := Engine.now e
        end
        else continue := false
      done)

let quiescent t =
  Array.for_all (fun e -> Engine.next_time e = infinity) t.engines
  && Array.for_all (fun ob -> !ob = []) t.outbox

(* The coordinator loop. Runs until every engine is drained and no
   message is in flight. [workers] caps the domains used (default: the
   usable-core count, never more than there are shards). *)
let run ?workers t =
  if t.active then invalid_arg "Par.run: already running";
  t.active <- true;
  Fun.protect
    ~finally:(fun () -> t.active <- false)
    (fun () ->
      let n = shards t in
      let p = pool () in
      let w_use =
        Stdlib.max 1
          (Stdlib.min n
             (match workers with Some w -> w | None -> Workers.size p))
      in
      t.workers <- w_use;
      let nexts = Array.make n infinity in
      let bounds = Array.make n infinity in
      let finished = ref false in
      while not !finished do
        (* Deliver: merge all outboxes in (time, src, seq) order and
           schedule each message on its destination engine. All engines
           are quiescent here, so this is plain single-threaded work. *)
        let msgs =
          Array.fold_left (fun acc ob ->
              let l = !ob in
              ob := [];
              List.rev_append l acc)
            [] t.outbox
        in
        let msgs = List.sort (fun a b -> if msg_before a b then -1 else 1) msgs in
        List.iter
          (fun m ->
            t.delivered <- t.delivered + 1;
            Engine.schedule_at t.engines.(m.m_dst) m.m_time m.m_run)
          msgs;
        for i = 0 to n - 1 do
          nexts.(i) <- Engine.next_time t.engines.(i)
        done;
        let tmin = Array.fold_left Stdlib.min infinity nexts in
        if tmin = infinity then finished := true
        else begin
          for j = 0 to n - 1 do
            let b = ref infinity in
            for i = 0 to n - 1 do
              if i <> j && nexts.(i) < !b then b := nexts.(i)
            done;
            bounds.(j) <- !b
          done;
          t.rounds <- t.rounds + 1;
          if w_use = 1 then
            for j = 0 to n - 1 do
              window t j ~bound:bounds.(j) ~tmin
            done
          else
            Workers.run p (fun w ->
                if w < w_use then begin
                  let j = ref w in
                  while !j < n do
                    window t !j ~bound:bounds.(!j) ~tmin;
                    j := !j + w_use
                  done
                end)
        end
      done;
      assert (quiescent t))
