(* A small work-stealing-free domain pool for the bench harness: run
   independent, fully-seeded scenarios in parallel, one scenario per
   domain at a time. Each task runs entirely within a single domain, so
   scenario-internal determinism (simulation engine, RNG streams,
   domain-local scratch buffers) is untouched — parallelism only
   changes which wall-clock core a scenario occupies.

   Tasks are claimed from a shared atomic counter by the workers of a
   transient {!Workers} pool; results land in per-task slots. An
   exception in any task is re-raised after all workers finish. *)

(* The runtime's recommendation can exceed what the process may
   actually use (containers and cpusets restrict affinity without
   shrinking the machine), and spawning domains that must time-share
   one core is pure overhead. Cross-check against the kernel's
   affinity mask when it is readable. *)
let affinity_cpus () =
  let count_list spec =
    (* "0-2,4" — comma-separated single CPUs or inclusive ranges. *)
    try
      let n =
        String.split_on_char ',' (String.trim spec)
        |> List.fold_left
             (fun acc part ->
               match String.index_opt part '-' with
               | None -> acc + 1
               | Some i ->
                 let lo = int_of_string (String.sub part 0 i) in
                 let hi =
                   int_of_string
                     (String.sub part (i + 1) (String.length part - i - 1))
                 in
                 acc + hi - lo + 1)
             0
      in
      if n > 0 then Some n else None
    with Failure _ -> None
  in
  let tag = "Cpus_allowed_list:" in
  let tag_len = String.length tag in
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > tag_len && String.sub l 0 tag_len = tag
            ->
            count_list (String.sub l tag_len (String.length l - tag_len))
          | Some _ -> scan ()
        in
        scan ())
  with
  | exception Sys_error _ -> None
  | r -> r

let default_domains () =
  let rec_count = Domain.recommended_domain_count () in
  let usable =
    match affinity_cpus () with
    | Some cpus -> Stdlib.min rec_count cpus
    | None -> rec_count
  in
  Stdlib.max 1 usable

(* The pool size [run ?domains tasks] will actually use — exposed so
   callers (the benches) can report real parallelism instead of what
   they asked for, and skip pool-vs-serial comparisons that would
   measure nothing. *)
let pool_size ?domains ~tasks () =
  if tasks = 0 then 0
  else
    Stdlib.max 1
      (Stdlib.min tasks
         (match domains with Some d -> d | None -> default_domains ()))

(* --- persistent workers -------------------------------------------------- *)

(* Spawn-once / submit-many workers for callers that dispatch many tiny
   rounds (the parallel-DES epoch loop steps engines thousands of times
   per run; paying Domain.spawn per round would dwarf the work). The
   caller's own domain doubles as worker 0, so [size] workers cost
   [size - 1] spawned domains.

   Each helper owns a slot with a published epoch counter: the caller
   writes the job, bumps [go], and the helper (spinning briefly, then
   blocking on a condvar) runs it, records any exception it raised in
   [failed], and bumps [done_]. Atomics give the happens-before edges
   for the job closure and everything it touches (including [failed]);
   the mutex/condvar pair only arbitrates sleep/wake. *)
module Workers = struct
  type slot = {
    mutable job : int -> unit;
    mutable failed : exn option; (* what this epoch's job raised *)
    go : int Atomic.t; (* epoch the helper should run next *)
    done_ : int Atomic.t; (* last epoch the helper completed *)
    m : Mutex.t;
    cv : Condition.t;
    mutable helper_asleep : bool;
    mutable caller_asleep : bool;
  }

  type t = {
    size : int;
    slots : slot array; (* size - 1 helpers; index w-1 drives worker w *)
    domains : unit Domain.t array;
    mutable epoch : int;
    mutable live : bool;
  }

  let spin_budget = 2_000

  (* The job [shutdown] posts. One closure compared with [==]: the
     primitive [ignore] is eta-expanded afresh at every use, so two
     mentions of it are never physically equal. *)
  let stop : int -> unit = fun _ -> ()

  let helper_loop slot w =
    let epoch = ref 1 in
    let continue = ref true in
    while !continue do
      (* Wait for [go] to reach our epoch: spin, then block. *)
      let spins = ref 0 in
      while Atomic.get slot.go < !epoch && !spins < spin_budget do
        Domain.cpu_relax ();
        incr spins
      done;
      if Atomic.get slot.go < !epoch then begin
        Mutex.lock slot.m;
        while Atomic.get slot.go < !epoch do
          slot.helper_asleep <- true;
          Condition.wait slot.cv slot.m
        done;
        slot.helper_asleep <- false;
        Mutex.unlock slot.m
      end;
      let j = slot.job in
      if j == stop then continue := false
      else (try j w with e -> slot.failed <- Some e);
      Atomic.set slot.done_ !epoch;
      Mutex.lock slot.m;
      if slot.caller_asleep then Condition.broadcast slot.cv;
      Mutex.unlock slot.m;
      incr epoch
    done

  let create ?domains () =
    let size =
      Stdlib.max 1
        (match domains with Some d -> d | None -> default_domains ())
    in
    let slots =
      Array.init (size - 1) (fun _ ->
          {
            job = stop;
            failed = None;
            go = Atomic.make 0;
            done_ = Atomic.make 0;
            m = Mutex.create ();
            cv = Condition.create ();
            helper_asleep = false;
            caller_asleep = false;
          })
    in
    let domains =
      Array.mapi (fun i slot -> Domain.spawn (fun () -> helper_loop slot (i + 1)))
        slots
    in
    { size; slots; domains; epoch = 0; live = true }

  let size t = t.size

  let post t f =
    t.epoch <- t.epoch + 1;
    Array.iter
      (fun slot ->
        slot.job <- f;
        Atomic.set slot.go t.epoch;
        Mutex.lock slot.m;
        if slot.helper_asleep then Condition.broadcast slot.cv;
        Mutex.unlock slot.m)
      t.slots

  let await t =
    Array.iter
      (fun slot ->
        let spins = ref 0 in
        while Atomic.get slot.done_ < t.epoch && !spins < spin_budget do
          Domain.cpu_relax ();
          incr spins
        done;
        if Atomic.get slot.done_ < t.epoch then begin
          Mutex.lock slot.m;
          while Atomic.get slot.done_ < t.epoch do
            slot.caller_asleep <- true;
            Condition.wait slot.cv slot.m
          done;
          slot.caller_asleep <- false;
          Mutex.unlock slot.m
        end)
      t.slots

  (* The first exception in worker order: worker 0's, else the lowest
     failing helper's. Every slot is cleared, so the pool stays usable. *)
  let run t f =
    if not t.live then invalid_arg "Domain_pool.Workers.run: shut down";
    post t f;
    (* The caller is worker 0 — run its share inline while helpers work. *)
    let first = ref (try f 0; None with e -> Some e) in
    await t;
    Array.iter
      (fun slot ->
        if Option.is_none !first then first := slot.failed;
        slot.failed <- None)
      t.slots;
    Option.iter raise !first

  let shutdown t =
    if t.live then begin
      t.live <- false;
      post t stop;
      Array.iter Domain.join t.domains
    end
end

(* [run ?domains tasks] evaluates every thunk and returns their results
   in task order, on a transient {!Workers} pool of {!pool_size}
   workers that claim tasks from a shared counter. [domains] caps the
   pool size (default: the usable domain count, never more than there
   are tasks). A one-worker pool spawns nothing: the tasks run inline. *)
let run ?domains (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec claim _ =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (tasks.(i) ());
      claim 0
    end
  in
  let pool = Workers.create ~domains:(pool_size ?domains ~tasks:n ()) () in
  Fun.protect
    ~finally:(fun () -> Workers.shutdown pool)
    (fun () -> Workers.run pool claim);
  Array.map
    (function Some v -> v | None -> failwith "Domain_pool.run: missing result")
    results
