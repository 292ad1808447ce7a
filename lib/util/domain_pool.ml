(* A small work-stealing-free domain pool for the bench harness: run
   independent, fully-seeded scenarios in parallel, one scenario per
   domain at a time. Each task runs entirely within a single domain, so
   scenario-internal determinism (simulation engine, RNG streams,
   domain-local scratch buffers) is untouched — parallelism only
   changes which wall-clock core a scenario occupies.

   Tasks are claimed from a shared atomic counter by the calling domain
   and the domains spawned for one [run]; results land in per-task
   slots. An exception in any task is re-raised after all domains
   have joined. *)

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

(* [run ?domains tasks] evaluates every thunk and returns their results
   in task order. The calling domain and [pool_size - 1] spawned ones
   claim tasks from a shared atomic counter; a worker stops at its first
   exception. Joining gives the happens-before edge for every result
   slot. The first exception in worker order (the caller's, else the
   lowest spawned worker's) is re-raised once every domain has joined.
   A one-worker pool spawns nothing: the tasks run inline. *)
let run ?domains (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (tasks.(i) ());
      claim ()
    end
  in
  let work () = match claim () with () -> None | exception e -> Some e in
  let helpers =
    List.init
      (Stdlib.max 0 (pool_size ?domains ~tasks:n () - 1))
      (fun _ -> Domain.spawn work)
  in
  let first = work () in
  let failures = first :: List.map Domain.join helpers in
  Option.iter raise (List.find_map Fun.id failures);
  Array.map
    (function Some v -> v | None -> failwith "Domain_pool.run: missing result")
    results
