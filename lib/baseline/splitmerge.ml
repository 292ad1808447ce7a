module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Scope = Opennf_state.Scope
open Opennf_net
open Opennf

type report = {
  started : float;
  finished : float;
  chunks : int;
  buffered : int;
  late : int;
}

let migrate t ~src ~dst ~filter =
  let engine = Controller.engine t in
  let started = Engine.now engine in
  let dst_name = Controller.nf_name dst in
  (* Halt: divert matching traffic to the controller and buffer it. *)
  let buffer = Queue.create () in
  let flushed = ref false in
  let late = ref 0 in
  let buffered = ref 0 in
  let sub =
    Controller.subscribe_packet_in t filter (fun p ->
        if !flushed then begin
          (* The Figure 5 race: the forwarding update has been issued but
             is not yet active, so stragglers keep arriving here and are
             relayed behind packets the switch already sends direct. *)
          incr late;
          Controller.packet_out t ~port:dst_name p
        end
        else begin
          incr buffered;
          Queue.push p buffer
        end)
  in
  let filters =
    if Filter.is_symmetric filter then [ filter ]
    else [ filter; Filter.mirror filter ]
  in
  let divert = Controller.fresh_cookie t in
  Controller.install_rule t ~cookie:divert
    ~priority:Controller.phase1_priority ~filters
    ~actions:[ Flowtable.To_controller ];
  Controller.barrier t;
  (* Transfer state with the plain get/del/put — no events, so updates
     from packets that were in flight toward the source are lost and the
     packets themselves are dropped there. *)
  let chunks = Op_error.ok_exn (Controller.get t src ~scope:Scope.Per filter) in
  Op_error.ok_exn (Controller.del t src ~scope:Scope.Per (List.map fst chunks));
  if chunks <> [] then
    Op_error.ok_exn (Controller.put t dst ~scope:Scope.Per chunks);
  (* Flush the buffer, then issue the forwarding update: the two race. *)
  Queue.iter (fun p -> Controller.packet_out t ~port:dst_name p) buffer;
  Queue.clear buffer;
  flushed := true;
  let final = Controller.fresh_cookie t in
  Controller.install_rule t ~cookie:final
    ~priority:Controller.phase2_priority ~filters
    ~actions:[ Flowtable.Forward dst_name ];
  Controller.barrier t;
  Controller.remove_rule t ~cookie:divert;
  (* Leave the subscription briefly so stragglers are counted, then
     detach. *)
  Proc.sleep 0.05;
  Controller.unsubscribe t sub;
  {
    started;
    finished = Engine.now engine;
    chunks = List.length chunks;
    buffered = !buffered;
    late = !late;
  }
