type event = {
  time : float;
  seq : int;
  thunk : unit -> unit;
  mutable vb : int; (* virtual bucket: floor (time / width) at last index *)
  mutable next : event; (* intrusive sorted chain; [nil]-terminated *)
}

(* Sentinel terminating every chain (compared with [==]). *)
let rec nil = { time = 0.0; seq = 0; thunk = ignore; vb = 0; next = nil }

(* Dispatch order: strictly by (time, seq) — virtual time first, FIFO
   of scheduling on ties. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Calendar-queue timing wheel: O(1) amortized schedule and dispatch.

   Events hash by virtual bucket number [vb] = floor (time / width)
   into a circular array of sorted chains; the bucket width adapts to
   the observed inter-event gap whenever the wheel resizes, keeping
   average occupancy (and thus sorted-insert cost) at a handful of
   events. Dispatch scans forward from the current bucket and takes the
   first chain head whose [vb] matches the scanned slot — by
   construction the global minimum under (time, seq), because [vb] is
   monotone in [time] and equal times always share a bucket (so FIFO
   seq ties are resolved inside one sorted chain). If a whole rotation
   finds nothing in the current year, a direct minimum over all chain
   heads (the safety net for any distribution the geometry mispredicts)
   restores the invariant.

   Far-future events — beyond [far_horizon] buckets ahead, including
   anything whose bucket number would overflow [int_of_float] — wait in
   a sorted overflow chain that is consulted at every dispatch and
   reindexed on every resize. *)
module Wheel = struct
  let min_buckets = 256
  let max_buckets = 1 lsl 20
  let far_horizon = 1 lsl 32
  let far_vb = max_int
  let max_vb_float = 1.15292150460684698e18 (* 2^60 *)

  type t = {
    mutable width : float;
    mutable inv_width : float;
    mutable buckets : event array;
    mutable mask : int; (* Array.length buckets - 1 *)
    mutable size : int; (* wheel + overflow *)
    mutable wheel_size : int;
    mutable cur_vb : int; (* bucket of the last dispatched event *)
    mutable lastprio : float; (* time of the last dispatched event *)
    mutable overflow : event;
    mutable cached : event; (* memoized peek result; nil = none *)
    mutable cached_overflow : bool;
  }

  let create () =
    {
      width = 1e-3;
      inv_width = 1e3;
      buckets = Array.make min_buckets nil;
      mask = min_buckets - 1;
      size = 0;
      wheel_size = 0;
      cur_vb = 0;
      lastprio = 0.0;
      overflow = nil;
      cached = nil;
      cached_overflow = false;
    }

  let[@inline] vb_of t time =
    let f = time *. t.inv_width in
    if f >= max_vb_float then far_vb else int_of_float f

  (* Sorted insert by (time, seq) into the chain starting at [head];
     returns the chain's new head. *)
  let insert_sorted ev head =
    if head == nil || before ev head then begin
      ev.next <- head;
      ev
    end
    else begin
      let prev = ref head in
      while !prev.next != nil && not (before ev !prev.next) do
        prev := !prev.next
      done;
      ev.next <- !prev.next;
      !prev.next <- ev;
      head
    end

  let insert_bucket t ev =
    let i = ev.vb land t.mask in
    t.buckets.(i) <- insert_sorted ev t.buckets.(i)

  let insert_overflow t ev = t.overflow <- insert_sorted ev t.overflow

  let next_pow2 n =
    let p = ref min_buckets in
    while !p < n && !p < max_buckets do
      p := !p * 2
    done;
    !p

  (* Adapt the bucket width to the observed event spacing: the average
     positive gap over the first (up to) 1024 events of the sorted
     schedule, doubled. Deterministic — no sampling randomness — and
     robust to time ties (zero gaps are ignored) and far outliers (the
     head of the schedule sets the cadence). *)
  let width_of_sorted old_width (evs : event array) =
    let n = Array.length evs in
    let k = min n 1024 in
    let sum = ref 0.0 and cnt = ref 0 in
    for i = 1 to k - 1 do
      let g = evs.(i).time -. evs.(i - 1).time in
      if g > 0.0 then begin
        sum := !sum +. g;
        incr cnt
      end
    done;
    if !cnt = 0 then old_width
    else Float.max 1e-9 (Float.min 1e6 (2.0 *. !sum /. float_of_int !cnt))

  let rebuild t =
    let evs = Array.make t.size nil in
    let j = ref 0 in
    Array.iter
      (fun head ->
        let e = ref head in
        while !e != nil do
          evs.(!j) <- !e;
          incr j;
          e := !e.next
        done)
      t.buckets;
    let e = ref t.overflow in
    while !e != nil do
      evs.(!j) <- !e;
      incr j;
      e := !e.next
    done;
    Array.stable_sort (fun a b -> if before a b then -1 else 1) evs;
    t.width <- width_of_sorted t.width evs;
    t.inv_width <- 1.0 /. t.width;
    let n = next_pow2 t.size in
    t.buckets <- Array.make n nil;
    t.mask <- n - 1;
    t.cur_vb <- vb_of t t.lastprio;
    t.overflow <- nil;
    t.wheel_size <- 0;
    t.cached <- nil;
    (* Walk the sorted schedule backwards, prepending: each chain comes
       out ascending with O(1) work per event. *)
    for i = Array.length evs - 1 downto 0 do
      let ev = evs.(i) in
      let vb = vb_of t ev.time in
      ev.vb <- vb;
      if vb - t.cur_vb > far_horizon then begin
        ev.next <- t.overflow;
        t.overflow <- ev
      end
      else begin
        let b = vb land t.mask in
        ev.next <- t.buckets.(b);
        t.buckets.(b) <- ev;
        t.wheel_size <- t.wheel_size + 1
      end
    done

  let push t ev =
    t.cached <- nil;
    ev.vb <- vb_of t ev.time;
    if ev.vb - t.cur_vb > far_horizon then insert_overflow t ev
    else begin
      insert_bucket t ev;
      t.wheel_size <- t.wheel_size + 1
    end;
    t.size <- t.size + 1;
    if t.wheel_size > 2 * (t.mask + 1) && t.mask + 1 < max_buckets then
      rebuild t

  (* Locate the global minimum without removing it; memoized for the
     pop that typically follows. *)
  let find_min t =
    if t.size = 0 then nil
    else begin
      let best = ref nil in
      if t.wheel_size > 0 then begin
        (* One year, starting at the current bucket. *)
        let n = t.mask + 1 in
        let vb = ref t.cur_vb and count = ref 0 in
        while !best == nil && !count < n do
          let h = t.buckets.(!vb land t.mask) in
          if h != nil && h.vb = !vb then best := h
          else begin
            incr vb;
            incr count
          end
        done;
        if !best == nil then begin
          (* Nothing due this year: direct minimum over chain heads.
             Distinct buckets never hold equal times (same time = same
             bucket), so (time, seq) comparison needs no extra care. *)
          for b = 0 to t.mask do
            let h = t.buckets.(b) in
            if h != nil && (!best == nil || before h !best) then best := h
          done
        end
      end;
      (match t.overflow with
      | o when o != nil && (!best == nil || before o !best) ->
        t.cached_overflow <- true;
        best := o
      | _ -> t.cached_overflow <- false);
      t.cached <- !best;
      !best
    end

  let peek t = if t.cached != nil then t.cached else find_min t

  let pop t =
    let ev = peek t in
    assert (ev != nil);
    if t.cached_overflow then t.overflow <- ev.next
    else begin
      let i = ev.vb land t.mask in
      (* The minimum is always the head of its chain. *)
      assert (t.buckets.(i) == ev);
      t.buckets.(i) <- ev.next;
      t.wheel_size <- t.wheel_size - 1
    end;
    ev.next <- nil;
    t.size <- t.size - 1;
    t.cached <- nil;
    t.lastprio <- ev.time;
    if not t.cached_overflow then t.cur_vb <- ev.vb
    else begin
      t.cached_overflow <- false;
      let vb = vb_of t ev.time in
      if vb <> far_vb then t.cur_vb <- vb
    end;
    if t.size >= 1 && t.wheel_size < (t.mask + 1) / 8 && t.mask + 1 > min_buckets
    then rebuild t;
    ev
end

type t = {
  q : Wheel.t;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable running : bool;
  rng : Opennf_util.Rng.t;
  obs : Opennf_obs.Hub.t;
  m_events : Opennf_obs.Metrics.counter;
}

let create ?(seed = 1) ?(obs = Opennf_obs.Hub.disabled) () =
  let t =
    {
      q = Wheel.create ();
      clock = 0.0;
      next_seq = 0;
      processed = 0;
      running = false;
      rng = Opennf_util.Rng.create ~seed;
      obs;
      m_events = Opennf_obs.Metrics.counter (Opennf_obs.Hub.metrics obs) "engine.events";
    }
  in
  (* Observation reads the clock; it never schedules or touches the RNG,
     so instrumentation cannot perturb the simulation. *)
  Opennf_obs.Trace.set_clock (Opennf_obs.Hub.trace obs) (fun () -> t.clock);
  t

let obs t = t.obs
let now t = t.clock
let rng t = t.rng

let schedule_at t time thunk =
  if not (Float.is_finite time) then
    invalid_arg "Engine.schedule_at: time must be finite";
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)"
         time t.clock);
  let ev = { time; seq = t.next_seq; thunk; vb = 0; next = nil } in
  Wheel.push t.q ev;
  t.next_seq <- t.next_seq + 1

let schedule t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t (t.clock +. delay) thunk

(* Dispatch exactly one event. Shared by [run] and [run_until], so
   bounded stepping observes the same dispatch sequence as a free
   [run]. *)
let dispatch_one t =
  let ev = Wheel.pop t.q in
  t.clock <- ev.time;
  t.processed <- t.processed + 1;
  Opennf_obs.Metrics.incr t.m_events;
  ev.thunk ()

type stop = Empty | Reached_until

let run_until t ~until =
  if t.running then invalid_arg "Engine.run_until: engine is already running";
  t.running <- true;
  Fun.protect ~finally:(fun () -> t.running <- false) (fun () ->
      let rec loop () =
        let ev = Wheel.peek t.q in
        if ev == nil then Empty
        else if ev.time > until then Reached_until
        else begin
          dispatch_one t;
          loop ()
        end
      in
      loop ())

let run ?(until = infinity) t =
  if t.running then invalid_arg "Engine.run: already running";
  t.running <- true;
  let continue = ref true in
  while !continue do
    let ev = Wheel.peek t.q in
    if ev == nil || ev.time > until then continue := false
    else dispatch_one t
  done;
  if until <> infinity && t.clock < until then t.clock <- until;
  t.running <- false

let pending t = t.q.Wheel.size

let processed t = t.processed
