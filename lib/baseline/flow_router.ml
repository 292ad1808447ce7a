open Opennf_net
open Opennf

type t = {
  ctrl : Controller.t;
  mutable policy : Packet.t -> Controller.nf;
  pins : string Flow.Table.t;  (* canonical key -> pinned instance *)
}

let pin_priority = 120
(* Above the base route, below any move's rules. *)

let on_packet_in t (p : Packet.t) =
  let k = Flow.canonical p.Packet.key in
  if not (Flow.Table.mem t.pins k) then begin
    let nf = t.policy p in
    let name = Controller.nf_name nf in
    Flow.Table.replace t.pins k name;
    let cookie = Controller.fresh_cookie t.ctrl in
    Controller.install_rule t.ctrl ~cookie ~priority:pin_priority
      ~filters:[ Filter.of_key k; Filter.of_key (Flow.reverse k) ]
      ~actions:[ Flowtable.Forward name ];
    (* Send the triggering packet along so it is not lost while the rule
       installs; subsequent packets may still punt until then and are
       forwarded the same way (possible mild reordering — inherent to
       this baseline). *)
    Controller.packet_out t.ctrl ~port:name p
  end
  else begin
    let name = Flow.Table.find t.pins k in
    Controller.packet_out t.ctrl ~port:name p
  end

let start ctrl ~policy ?(filter = Filter.any) () =
  let punt_cookie = Controller.fresh_cookie ctrl in
  let t = { ctrl; policy; pins = Flow.Table.create 256 } in
  ignore (Controller.subscribe_packet_in ctrl filter (on_packet_in t));
  let filters =
    if Filter.is_symmetric filter then [ filter ]
    else [ filter; Filter.mirror filter ]
  in
  Controller.install_rule ctrl ~cookie:punt_cookie
    ~priority:Controller.base_priority ~filters
    ~actions:[ Flowtable.To_controller ];
  Controller.barrier ctrl;
  t

let set_policy t policy = t.policy <- policy

let pinned_on t nf =
  let name = Controller.nf_name nf in
  Flow.Table.fold
    (fun _ n acc -> if n = name then acc + 1 else acc)
    t.pins 0
