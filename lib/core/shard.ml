module Proc = Opennf_sim.Proc
open Opennf_net

(* --- flowspace partition -------------------------------------------------- *)

(* FNV-1a over the canonical (direction-independent) 5-tuple: both
   directions of a connection land on the same shard, the mapping is a
   pure function of the key (stable under any table growth), and any
   string-stable change to [Flow.to_string] would be caught by the
   partition-stability property tests. *)
let of_key ~shards key =
  if shards <= 1 then 0
  else
    let h = Opennf_util.Hashing.fnv1a64 (Flow.to_string (Flow.canonical key)) in
    Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int shards))

let of_name ~shards name =
  if shards <= 1 then 0
  else
    let h = Opennf_util.Hashing.fnv1a64 name in
    Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int shards))

let of_filter ~shards filter =
  Option.map (fun key -> of_key ~shards key) (Filter.exact_key filter)

(* --- the shard group ------------------------------------------------------- *)

type t = {
  ctrls : Controller.t array;
  scheds : Sched.t array;
  m_cross : Opennf_obs.Metrics.counter option;
      (** Cross-shard admissions; only registered when [shards > 1] so
          single-shard metric snapshots carry no new names. *)
  mutable cross_ops : int;
}

let make ctrls scheds =
  let n = Array.length ctrls in
  if n = 0 then invalid_arg "Shard.make: empty group";
  if Array.length scheds <> n then
    invalid_arg "Shard.make: one scheduler per controller required";
  Array.iteri
    (fun k c ->
      if Controller.shard_id c <> k || Controller.shard_count c <> n then
        invalid_arg "Shard.make: controllers out of order or wrong count")
    ctrls;
  let m_cross =
    if n <= 1 then None
    else
      Some
        (Opennf_obs.Metrics.counter
           (Opennf_obs.Hub.metrics (Controller.obs ctrls.(0)))
           "shard.cross_ops")
  in
  { ctrls; scheds; m_cross; cross_ops = 0 }

let count g = Array.length g.ctrls
let ctrl g k = g.ctrls.(k)
let sched g k = g.scheds.(k)
let home _g nf = Controller.nf_shard nf
let cross_shard_ops g = g.cross_ops

let messages_handled g =
  Array.fold_left (fun acc c -> acc + Controller.messages_handled c) 0 g.ctrls

(* The distinct home shards of an operation's instances, ascending. The
   ascending order is the lock order of the cross-shard handshake:
   every multi-shard admission acquires in it, so two cross-shard
   operations can never deadlock on each other's scheduler queues. *)
let shard_ids g nfs =
  List.sort_uniq Int.compare (List.map (home g) nfs)

let note_cross g =
  g.cross_ops <- g.cross_ops + 1;
  match g.m_cross with
  | Some c -> Opennf_obs.Metrics.incr c
  | None -> ()

(* --- cross-shard admission ------------------------------------------------- *)

(* Admission of an operation whose footprint spans [nfs]' home shards.

   Single shard: exactly [Sched.submit] on that shard — the unsharded
   fast path, taken by everything when [count g = 1].

   Multiple shards: the two-shard handshake. A coordinator process
   acquires a hold for the same footprint on every involved scheduler in
   ascending shard-id order (deadlock-free), runs the body — which
   reuses the ordinary operation code; [Controller]'s home routing makes
   southbound calls land on the right shard — and releases in reverse
   order. Each shard's scheduler sees the footprint in its own queue, so
   per-shard operations conflict with the cross-shard one exactly as
   they would with a local one. *)
let submit g ~footprint ~nfs body =
  match shard_ids g nfs with
  | [] -> Sched.submit g.scheds.(0) ~footprint body
  | [ s ] -> Sched.submit g.scheds.(s) ~footprint body
  | ss ->
    note_cross g;
    let engine = Controller.engine g.ctrls.(0) in
    let ivar = Proc.Ivar.create engine in
    Proc.spawn engine (fun () ->
        let holds =
          List.map
            (fun s -> (g.scheds.(s), Sched.acquire g.scheds.(s) ~footprint))
            ss
        in
        let result = body () in
        List.iter (fun (sch, h) -> Sched.release sch h) (List.rev holds);
        Proc.Ivar.fill ivar result);
    ivar

let run g ~footprint ~nfs body = Proc.Ivar.read (submit g ~footprint ~nfs body)

(* Early release must reach every scheduler holding the footprint: the
   released-key list lives in the footprint itself (shared across the
   holds), so releasing through each involved scheduler just re-pumps
   the right queues. *)
let release_flow g ~footprint ~nfs key =
  List.iter
    (fun s -> Sched.release_flow g.scheds.(s) ~footprint key)
    (shard_ids g nfs)

(* --- long-lived multi-shard holds (Share) ---------------------------------- *)

type hold = (Sched.t * Sched.handle) list

let acquire g ~footprint ~nfs =
  let ss = shard_ids g nfs in
  (match ss with _ :: _ :: _ -> note_cross g | _ -> ());
  List.map (fun s -> (g.scheds.(s), Sched.acquire g.scheds.(s) ~footprint)) ss

let release_hold hold =
  List.iter (fun (sch, h) -> Sched.release sch h) (List.rev hold)
