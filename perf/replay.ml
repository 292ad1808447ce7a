(* Isolated replays of a workload's own inputs through one layer at a
   time, after its measured units: what one item costs with nothing else
   running. Each replay is repeated and the median per-item cost is
   reported (ns). *)

module Engine = Opennf_sim.Engine
module Nf_api = Opennf_sb.Nf_api
open Opennf_net

let reps = 5

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median over [reps] of ns per item; [prepare] builds a repetition's
   untimed state and returns the timed body and its item count. *)
let per_item prepare =
  median
    (List.init reps (fun _ ->
         let body, items = prepare () in
         let t0 = Probe.now_ns () in
         body ();
         (Probe.now_ns () -. t0) /. float_of_int (max 1 items)))

let packets keys =
  Array.mapi
    (fun i key ->
      Packet.create ~id:i ~key ~flags:[ Packet.Ack ] ~seq:2 ~sent_at:0.0 ())
    keys

(* Dispatch of no-op events with [depth] pending: every event schedules
   its successor one depth-period ahead, so the queue stays that deep. *)
let engine ~depth =
  let depth = max 1 depth and n = 200_000 in
  per_item (fun () ->
      let e = Engine.create () in
      let left = ref n in
      let period = float_of_int depth *. 1e-6 in
      let rec ev () =
        if !left > 0 then begin
          decr left;
          Engine.schedule e ~delay:period ev
        end
      in
      for i = 0 to depth - 1 do
        Engine.schedule_at e (float_of_int i *. 1e-6) ev
      done;
      ((fun () -> Engine.run e), n))

(* Lookups of the workload's keys, both directions, on a copy of the
   switch's final rules. *)
let flowtable ~rules ~keys =
  let ft = Flowtable.create () in
  List.iter
    (fun (r : Flowtable.rule) ->
      Flowtable.install ft ~cookie:r.cookie ~priority:r.priority ~filters:r.filters
        ~actions:r.actions)
    (List.rev rules);
  let pkts = packets (Array.append keys (Array.map Flow.reverse keys)) in
  per_item (fun () ->
      ((fun () -> Array.iter (fun p -> ignore (Flowtable.lookup ft p)) pkts), Array.length pkts))

(* The workload's packets sent over a fresh link and delivered, in
   bursts of 64. *)
let channel ~keys =
  let pkts = packets keys in
  per_item (fun () ->
      let e = Engine.create () in
      let ch = Channel.create e ~latency:0.0002 ~name:"replay" () in
      Channel.set_handler ch ignore;
      ( (fun () ->
          Array.iteri
            (fun i p ->
              Channel.send ch ~size:p.Packet.wire_size p;
              if i land 63 = 63 then Engine.run e)
            pkts;
          Engine.run e),
        Array.length pkts ))

type nf_costs = { process_ns : float; export_ns : float; import_ns : float }

(* The workload's packets through its own NF as the run left it, then
   the per-flow chunks of those flows exported from it and imported into
   a fresh instance of the same NF. *)
let nf ~(nf : Nf_api.impl) ~fresh ~keys =
  let keys = Array.sub keys 0 (min 5_000 (Array.length keys)) in
  let pkts = packets keys in
  let process_ns =
    per_item (fun () ->
        ((fun () -> Array.iter nf.Nf_api.process_packet pkts), Array.length pkts))
  in
  let flowids =
    Array.of_list
      (List.concat_map (fun k -> nf.Nf_api.list_perflow (Filter.of_key k)) (Array.to_list keys))
  in
  let export_ns =
    per_item (fun () ->
        ( (fun () -> Array.iter (fun f -> ignore (nf.Nf_api.export_perflow f)) flowids),
          Array.length flowids ))
  in
  let chunks =
    Array.of_list
      (List.filter_map
         (fun f -> Option.map (fun c -> (f, c)) (nf.Nf_api.export_perflow f))
         (Array.to_list flowids))
  in
  let import_ns =
    per_item (fun () ->
        let dst = fresh () in
        ( (fun () -> Array.iter (fun (f, c) -> dst.Nf_api.import_perflow f c) chunks),
          Array.length chunks ))
  in
  { process_ns; export_ns; import_ns }
