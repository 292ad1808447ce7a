(* §8.3 (text): compressing state transfers. In the paper's
   controller-scalability setup (dummy NFs replaying PRADS-derived
   canned state), compressing the transfer shrank the state ~38% and cut
   a 500-flow move from 110 ms to 70 ms — the controller is busy reading
   sockets, so its cost scales with wire bytes. Compression here is a
   real LZ pass over the actual chunk bytes (streaming, with the
   previous chunk as dictionary), so the ratio is measured. *)

module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf
module H = Harness

let flows = 500
let subnet = Ipaddr.Prefix.make (Ipaddr.v 10 80 0 0) 16

let keys () =
  let base = Ipaddr.to_int (Ipaddr.v 10 80 0 0) in
  List.init flows (fun k ->
      Flow.make
        ~src:(Ipaddr.of_int (base + (k mod 250) + 1))
        ~dst:(Ipaddr.v 172 31 (k / 250) 1)
        ~proto:Flow.Tcp ~sport:(20000 + k) ~dport:443 ())

let run_move ~compress =
  let fab = Fabric.create ~seed:88 () in
  let d1 = Opennf_nfs.Dummy.create () in
  let d2 = Opennf_nfs.Dummy.create () in
  Opennf_nfs.Dummy.seed_flows d1 (keys ());
  let nf1, _ =
    Fabric.add_nf fab ~name:"src" ~impl:(Opennf_nfs.Dummy.impl d1)
      ~costs:Costs.dummy
  in
  let nf2, _ =
    Fabric.add_nf fab ~name:"dst" ~impl:(Opennf_nfs.Dummy.impl d2)
      ~costs:Costs.dummy
  in
  let report = ref None in
  Proc.spawn fab.engine (fun () ->
      Controller.set_route fab.ctrl (Filter.of_src_prefix subnet) nf1);
  H.run_at fab ~at:0.5 (fun () ->
      report :=
        Some
          (Op_error.ok_exn
             (Move.run fab.ctrl
                (Move.spec ~src:nf1 ~dst:nf2
                   ~filter:(Filter.of_src_prefix subnet)
                   ~guarantee:Move.Loss_free ~parallel:true ~compress ()))));
  Option.get !report

(* Measure the actual stream-compression ratio of the canned state. *)
let measured_ratio () =
  let d = Opennf_nfs.Dummy.create () in
  Opennf_nfs.Dummy.seed_flows d (keys ());
  let impl = Opennf_nfs.Dummy.impl d in
  let datas =
    List.filter_map
      (fun flowid ->
        Option.map
          (fun c -> c.Opennf_state.Chunk.data)
          (impl.Opennf_sb.Nf_api.export_perflow flowid))
      (impl.Opennf_sb.Nf_api.list_perflow Filter.any)
  in
  Opennf_util.Lz.stream_ratio datas

let run () =
  H.section "§8.3: state compression (dummy NFs, 500 flows)";
  let plain = run_move ~compress:false in
  let compressed = run_move ~compress:true in
  let ratio = measured_ratio () in
  H.table
    ~header:[ "mode"; "move time (ms)"; "paper (ms)" ]
    [
      [ "plain"; H.ms (Move.duration plain); "110" ];
      [ "compressed"; H.ms (Move.duration compressed); "70" ];
    ];
  H.note "measured stream-compression of the state: %.0f%% smaller (paper: ~38%%)"
    (100.0 *. (1.0 -. ratio));
  H.note "move sped up %.0f%% (paper: ~36%%)"
    (100.0 *. (1.0 -. (Move.duration compressed /. Move.duration plain)))

let () = H.register ~id:"sec83" ~descr:"state compression effect on move time" run
