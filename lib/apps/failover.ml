module Proc = Opennf_sim.Proc
module Scope = Opennf_state.Scope
module Backend = Opennf_state.Backend
open Opennf_net
open Opennf

(* Two ways to keep the standby warm. [Copy] is the paper's Figure 9:
   notify triggers drive bulk copy_op refreshes through the controller.
   [Replicated] is the FlexState rebase: the instances were built over a
   replicated backend pair, the delta stream keeps the standby fresh on
   every packet, and recovery is promote + reroute. The copy-based path
   is retained as the oracle the backend bench compares against. *)
type mode =
  | Copy
  | Replicated of { standby_backend : Backend.t }

type t = {
  ctrl : Controller.t;
  normal : Controller.nf;
  standby : Controller.nf;
  mode : mode;
  mutable handles : Notify.handle list;
  mutable refreshes : int;
  mutable bulk_bytes : int;  (* get/put copy traffic (seed + refreshes) *)
  mutable refreshing : Flow.Set.t;  (* Coalesce concurrent refreshes. *)
  mutable recovered_at : float option;
}

let copy t ~filter ~scope =
  Copy_op.run t.ctrl ~src:t.normal ~dst:t.standby ~filter ~scope ()

(* Copy the per-flow state for the event packet's flow to the standby
   (Figure 9, updateStandby); SYN/RST packets also update multi-flow
   counters, so refresh the source host's multi-flow state alongside —
   that is what keeps "all per-flow and multi-flow state" eventually
   consistent (§2.1). *)
let update_standby t (p : Packet.t) =
  let key = Flow.canonical p.Packet.key in
  if not (Flow.Set.mem key t.refreshing) then begin
    t.refreshing <- Flow.Set.add key t.refreshing;
    let host_filter = Filter.of_src_host p.Packet.key.Flow.src_ip in
    let touches_counters = Packet.has_flag p Syn || Packet.has_flag p Rst in
    Proc.spawn (Controller.engine t.ctrl) (fun () ->
        (* A refresh racing the primary's death must not take the app
           down: a failed copy is simply skipped (the standby keeps its
           previous, eventually-consistent snapshot). *)
        (match copy t ~filter:(Filter.of_key key) ~scope:[ Scope.Per ] with
        | Ok r1 ->
          t.bulk_bytes <- t.bulk_bytes + r1.Copy_op.state_bytes;
          if touches_counters then begin
            match copy t ~filter:host_filter ~scope:[ Scope.Multi ] with
            | Ok r2 -> t.bulk_bytes <- t.bulk_bytes + r2.Copy_op.state_bytes
            | Error _ -> ()
          end;
          t.refreshes <- t.refreshes + 1
        | Error _ -> ());
        t.refreshing <- Flow.Set.remove key t.refreshing)
  end

let detect_mode ~normal ~standby =
  match (Controller.backend_of normal, Controller.backend_of standby) with
  | Some pb, Some sb when Backend.replica_pair ~primary:pb ~standby:sb ->
    Replicated { standby_backend = sb }
  | _ -> Copy

(* Scopes the HTTP-request trigger, as in Figure 9 line 6. *)
let local_net = Ipaddr.Prefix.of_string "10.0.0.0/8"

let init_standby ctrl ~normal ~standby () =
  let mode = detect_mode ~normal ~standby in
  let t =
    {
      ctrl;
      normal;
      standby;
      mode;
      handles = [];
      refreshes = 0;
      bulk_bytes = 0;
      refreshing = Flow.Set.empty;
      recovered_at = None;
    }
  in
  (match mode with
  | Replicated _ ->
    (* The delta stream already refreshes per-flow and per-host state on
       every processed packet; there is nothing to trigger or to seed. *)
    ()
  | Copy ->
    let triggers =
      [
        (* notify({nw_proto: TCP, tcp_flags: SYN}) *)
        Filter.make ~proto:Flow.Tcp ~tcp_flag:Packet.Syn ();
        (* notify({nw_proto: TCP, tcp_flags: RST}) *)
        Filter.make ~proto:Flow.Tcp ~tcp_flag:Packet.Rst ();
        (* notify({nw_src: 10.0.0.0/8, nw_proto: TCP, tp_dst: 80}) *)
        Filter.make ~src:local_net ~proto:Flow.Tcp ~dst_port:80 ();
      ]
    in
    t.handles <-
      List.map
        (fun filter ->
          Op_error.ok_exn
            (Notify.enable ctrl normal filter (update_standby t)))
        triggers;
    (* Seed the standby's multi-flow state once; SYN/RST notifications
       keep the relevant parts fresh afterwards. *)
    Proc.spawn (Controller.engine ctrl) (fun () ->
        match copy t ~filter:Filter.any ~scope:[ Scope.Multi; Scope.All ] with
        | Ok r -> t.bulk_bytes <- t.bulk_bytes + r.Copy_op.state_bytes
        | Error _ -> ()));
  t

let fail_over t ~filter =
  (match t.mode with
  | Replicated { standby_backend } ->
    (* Promote first: frames still in flight from the dead primary must
       not rewrite state the standby now owns. *)
    Backend.promote standby_backend
  | Copy -> ());
  Controller.set_route t.ctrl filter t.standby;
  if t.recovered_at = None then
    t.recovered_at <- Some (Opennf_sim.Engine.now (Controller.engine t.ctrl))

let stop t =
  List.iter (Notify.disable t.ctrl) t.handles;
  t.handles <- []

(* Close the loop with the controller's liveness monitor: the instant
   the primary is declared dead, reroute to the standby and stop the
   (now pointless) refresh notifications. *)
let enable_auto t ~filter =
  Controller.on_nf_death t.ctrl (fun name ->
      if String.equal name (Controller.nf_name t.normal) then begin
        fail_over t ~filter;
        stop t
      end)

let replicated t = match t.mode with Replicated _ -> true | Copy -> false
let refreshes t = t.refreshes
let bulk_bytes t = t.bulk_bytes

let delta_bytes t =
  match t.mode with
  | Copy -> 0
  | Replicated { standby_backend } -> Backend.delta_bytes standby_backend

let bytes_transferred t = t.bulk_bytes + delta_bytes t
let recovered_at t = t.recovered_at
