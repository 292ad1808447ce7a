module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Faults = Opennf_sim.Faults
module Runtime = Opennf_sb.Runtime
open Opennf_net

type t = {
  engine : Engine.t;
  audit : Audit.t;
  switch : Switch.t;
  ctrl : Controller.t;
  group : Shard.t;
  faults : Faults.t;
  monitor : Opennf_obs.Monitor.t option;
}

(* Switch-to-NF port latency. *)
let link_latency = 0.0002

let monitor_from_env () =
  match Sys.getenv_opt "OPENNF_MONITOR" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let create ?(seed = 1) ?obs ?config ?flow_mod_delay ?packet_out_rate
    ?resilience ?max_concurrent_ops ?(shards = 1) ?monitor () =
  if shards < 1 then invalid_arg "Fabric.create: shards must be >= 1";
  let monitor =
    match monitor with Some b -> b | None -> monitor_from_env ()
  in
  let engine = Engine.create ~seed ?obs () in
  let audit = Audit.create engine in
  let faults = Faults.create engine () in
  let switch =
    Switch.create engine audit ~name:"sw" ?flow_mod_delay ?packet_out_rate ()
  in
  (* Shard k registers switch connection k (creation order), so routing
     a packet-in to its flow's owning shard is routing to conn index
     [Shard.of_key]. With one shard none of this machinery engages and
     the fabric is event-for-event the pre-shard one. *)
  let ctrls =
    Array.init shards (fun shard ->
        Controller.create engine audit ~switch ?config ~faults ?resilience
          ~shard ~shards ())
  in
  Controller.set_group ctrls;
  let scheds =
    Array.map (Sched.create ?max_concurrent:max_concurrent_ops) ctrls
  in
  let group = Shard.make ctrls scheds in
  if shards > 1 then
    Switch.set_packet_in_router switch (fun (p : Packet.t) ->
        Shard.of_key ~shards p.Packet.key);
  (* The live checker reads the audit rows and the hub's op spans (none
     when the hub is not tracing); it never schedules or records, so
     virtual-time results are unchanged. *)
  let monitor =
    if not monitor then None
    else begin
      let m = Opennf_obs.Monitor.create () in
      Audit.subscribe audit (Opennf_obs.Monitor.row m);
      Opennf_obs.Trace.on_event
        (Opennf_obs.Hub.trace (Engine.obs engine))
        (Opennf_obs.Monitor.op_event m);
      Some m
    end
  in
  {
    engine;
    audit;
    switch;
    ctrl = ctrls.(0);
    group;
    faults;
    monitor;
  }

let shards t = Shard.count t.group

let add_nf ?backend ?shard t ~name ~impl ~costs =
  let shard =
    match shard with
    | Some s ->
      if s < 0 || s >= shards t then invalid_arg "Fabric.add_nf: bad shard";
      s
    | None -> Shard.of_name ~shards:(shards t) name
  in
  let runtime =
    Runtime.create t.engine t.audit ~name ~impl ~costs ~faults:t.faults
      ?backend ()
  in
  let port =
    Channel.create t.engine ~latency:link_latency ~faults:t.faults
      ~name:("sw->" ^ name) ()
  in
  Channel.set_handler port (Runtime.receive runtime);
  Switch.attach_port t.switch ~name port;
  let nf = Controller.attach (Shard.ctrl t.group shard) runtime in
  (nf, runtime)

let inject t p = Switch.inject t.switch p

let inject_at t time p =
  Engine.schedule_at t.engine time (fun () -> Switch.inject t.switch p)

let run ?until t = Engine.run ?until t.engine

let run_proc t body =
  Proc.spawn t.engine body;
  run t

let monitored t = Option.is_some t.monitor

(* The verdict replays the audit rows through a fresh monitor: a
   streaming pass, nothing materialized. *)
let verdict t =
  let m = Opennf_obs.Monitor.create () in
  Audit.replay t.audit ~row:(Opennf_obs.Monitor.row m)
    ~hub:(Opennf_obs.Monitor.op_event m);
  Opennf_obs.Monitor.verdict m

let live_findings t =
  match t.monitor with
  | Some m -> Opennf_obs.Monitor.findings m
  | None -> []
