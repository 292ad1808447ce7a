module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Par = Opennf_sim.Par
module Faults = Opennf_sim.Faults
module Runtime = Opennf_sb.Runtime
open Opennf_net

type t = {
  engine : Engine.t;
  audit : Audit.t;
  switch : Switch.t;
  ctrl : Controller.t;
  sched : Sched.t;
  group : Shard.t;
  faults : Faults.t;
  link_latency : float;
  par : Par.t option;
  engines : Engine.t array;
  audits : Audit.t array;
  switches : Switch.t array;
  shard_faults : Faults.t array;
  ports : (string, int * Packet.t Channel.t) Hashtbl.t;
  monitors : Opennf_obs.Monitor.t array;
      (** Live §5.1 checkers, one per audit stream; [[||]] when the
          fabric was created without [~monitor:true]. *)
}

let shards_from_env () =
  match Sys.getenv_opt "OPENNF_SHARDS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> invalid_arg ("bad OPENNF_SHARDS: " ^ s))

let par_from_env () =
  match Sys.getenv_opt "OPENNF_PAR" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let monitor_from_env () =
  match Sys.getenv_opt "OPENNF_MONITOR" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* Stitch the per-shard switch replicas into one logical switch (see
   {!Switch}'s replica-stitching hooks): flow-mods received on one
   replica mirror to the others at the same virtual time; packet-ins
   for a connection bound elsewhere, and forwards out a port attached
   elsewhere, ride the cross-engine channels to the owning shard. *)
let stitch_switches p ~shards switches audits ports =
  Array.iteri
    (fun k sw ->
      Switch.set_packet_in_router sw (fun (pkt : Packet.t) ->
          Shard.of_key ~shards pkt.Packet.key);
      Switch.set_mod_tap sw (fun ~conn msg ->
          Array.iteri
            (fun j peer ->
              if j <> k then
                Par.post p ~dst:j (fun () -> Switch.apply_mod peer ~conn msg))
            switches);
      Switch.set_conn_proxy sw (fun ~conn msg ->
          if conn >= 0 && conn < shards then begin
            Par.post p ~dst:conn (fun () ->
                Switch.emit_to switches.(conn) ~conn msg);
            true
          end
          else false);
      Switch.set_port_proxy sw (fun ~port pkt ->
          match Hashtbl.find_opt ports port with
          | None -> false
          | Some (s, ch) ->
            Par.post p ~dst:s (fun () ->
                Audit.log_forward audits.(s) pkt ~dst:port;
                Channel.send ch ~size:pkt.Packet.wire_size pkt);
            true))
    switches

let create ?(seed = 1) ?obs ?shard_obs ?config ?flow_mod_delay ?packet_out_rate
    ?(link_latency = 0.0002) ?fault_seed ?resilience ?max_concurrent_ops
    ?shards ?par ?monitor () =
  let shards =
    match shards with Some n -> n | None -> shards_from_env ()
  in
  if shards < 1 then invalid_arg "Fabric.create: shards must be >= 1";
  let par =
    (match par with Some b -> b | None -> par_from_env ()) && shards > 1
  in
  let monitor =
    match monitor with Some b -> b | None -> monitor_from_env ()
  in
  (* One live checker per audit stream. The monitor subscribes through
     the audit (the shared hub trace when tracing, the audit's own tap
     otherwise) and never schedules or records, so virtual-time results
     are unchanged. *)
  let make_monitors audits_distinct =
    if not monitor then [||]
    else
      Array.mapi
        (fun k audit ->
          let m = Opennf_obs.Monitor.create ~shard:k () in
          Audit.subscribe audit (Opennf_obs.Monitor.feed m);
          m)
        audits_distinct
  in
  if not par then begin
    let engine = Engine.create ~seed ?obs () in
    let audit = Audit.create engine in
    let faults = Faults.create engine ?seed:fault_seed () in
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
    let monitors = make_monitors [| audit |] in
    {
      engine;
      audit;
      switch;
      ctrl = ctrls.(0);
      sched = scheds.(0);
      group;
      faults;
      link_latency;
      par = None;
      engines = Array.make shards engine;
      audits = Array.make shards audit;
      switches = Array.make shards switch;
      shard_faults = Array.make shards faults;
      ports = Hashtbl.create 16;
      monitors;
    }
  end
  else begin
    (* Parallel mode: one engine (and one audit, faults handle and
       switch replica) per shard. Observability hubs cannot be shared
       across engines — each shard buffers its own trace, merged after
       the run ({!Audit.merged}, {!Opennf_obs.Export.canonical}). *)
    if Option.is_some obs then
      invalid_arg "Fabric.create: pass ~shard_obs (one hub per shard) with ~par";
    let engines =
      Array.init shards (fun k ->
          let obs = Option.map (fun f -> f k) shard_obs in
          Engine.create ~seed ?obs ())
    in
    let audits = Array.map Audit.create engines in
    let shard_faults =
      Array.map (fun e -> Faults.create e ?seed:fault_seed ()) engines
    in
    let switches =
      Array.init shards (fun k ->
          Switch.create engines.(k) audits.(k) ~name:"sw" ?flow_mod_delay
            ?packet_out_rate ())
    in
    (* [~conn:k] pins controller k at connection k on its own replica,
       so every replica agrees on the global connection numbering (the
       other slots stay empty and route through the conn proxy). *)
    let ctrls =
      Array.init shards (fun k ->
          Controller.create engines.(k) audits.(k) ~switch:switches.(k) ?config
            ~faults:shard_faults.(k) ?resilience ~shard:k ~shards ~conn:k ())
    in
    Controller.set_group ctrls;
    let scheds =
      Array.map (Sched.create ?max_concurrent:max_concurrent_ops) ctrls
    in
    let group = Shard.make ctrls scheds in
    let p = Par.create engines in
    Controller.set_par ctrls.(0) p;
    let ports = Hashtbl.create 16 in
    stitch_switches p ~shards switches audits ports;
    let monitors = make_monitors audits in
    {
      engine = engines.(0);
      audit = audits.(0);
      switch = switches.(0);
      ctrl = ctrls.(0);
      sched = scheds.(0);
      group;
      faults = shard_faults.(0);
      link_latency;
      par = Some p;
      engines;
      audits;
      switches;
      shard_faults;
      ports;
      monitors;
    }
  end

let shards t = Shard.count t.group
let parallel t = Option.is_some t.par
let ctrl_of t k = Shard.ctrl t.group k
let sched_of t k = Shard.sched t.group k
let nf_sched t nf = Shard.sched t.group (Controller.nf_shard nf)

let add_nf ?backend ?shard t ~name ~impl ~costs =
  let shard =
    match shard with
    | Some s ->
      if s < 0 || s >= shards t then invalid_arg "Fabric.add_nf: bad shard";
      s
    | None -> Shard.of_name ~shards:(shards t) name
  in
  (* In a serial fabric every array entry aliases the one engine/audit/
     switch, so indexing by home shard is the unchanged wiring. *)
  let runtime =
    Runtime.create t.engines.(shard) t.audits.(shard) ~name ~impl ~costs
      ~faults:t.shard_faults.(shard) ?backend ()
  in
  let port =
    Channel.create t.engines.(shard) ~latency:t.link_latency
      ~faults:t.shard_faults.(shard) ~name:("sw->" ^ name) ()
  in
  Channel.set_handler port (Runtime.receive runtime);
  Switch.attach_port t.switches.(shard) ~name port;
  Hashtbl.replace t.ports name (shard, port);
  let nf = Controller.attach (ctrl_of t shard) runtime in
  (nf, runtime)

(* Packets enter at their flow's owning replica, so the packet-in (if
   the rule says To_controller) is a local delivery to the owning
   shard's controller connection. Serial: owner is replica 0, the one
   switch. *)
let owner t (p : Packet.t) =
  match t.par with
  | None -> 0
  | Some _ -> Shard.of_key ~shards:(shards t) p.Packet.key

let inject t p = Switch.inject t.switches.(owner t p) p

let inject_at t time p =
  let s = owner t p in
  Engine.schedule_at t.engines.(s) time (fun () ->
      Switch.inject t.switches.(s) p)

let run ?until ?workers t =
  match t.par with
  | None ->
    ignore (workers : int option);
    Engine.run ?until t.engine
  | Some p ->
    (match until with
    | Some _ ->
      invalid_arg "Fabric.run: ~until is not supported in parallel mode"
    | None -> ());
    Par.run ?workers p

let run_proc ?workers t body =
  Proc.spawn t.engine body;
  run ?workers t

let merged_audit t =
  match t.par with
  | None -> t.audit
  | Some _ -> Audit.merged t.engine (Array.to_list t.audits)

let monitored t = Array.length t.monitors > 0

(* The verdict replays the audit columns, shard-tagged and deduplicated
   (a serial fabric's [audits] array aliases the one ledger in every
   slot), through a fresh monitor: a streaming k-way merge, nothing
   materialized. *)
let verdict ?history t =
  let streams =
    match t.par with
    | None -> [ (0, Audit.events t.audit) ]
    | Some _ -> List.mapi (fun k a -> (k, Audit.events a)) (Array.to_list t.audits)
  in
  Opennf_obs.Monitor.replay ?history streams

let live_findings t =
  Array.to_list t.monitors
  |> List.concat_map Opennf_obs.Monitor.findings
