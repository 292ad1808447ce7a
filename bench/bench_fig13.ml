(* Figure 13 (§8.3): controller scalability — average time per loss-free
   move as a function of the number of simultaneous moves, with dummy
   NFs replaying canned 202-byte state so the controller is the
   bottleneck. Paper: grows linearly with both the number of moves and
   the flows per move. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Costs = Opennf_sb.Costs
open Opennf_net
open Opennf
module H = Harness

(* [n] distinct flow keys confined to the /16 subnet index [i], so each
   concurrent move has a disjoint filter. *)
let subnet_prefix i = Ipaddr.Prefix.make (Ipaddr.v 10 (40 + i) 0 0) 16

let keys_in_subnet i n =
  let base = Ipaddr.to_int (Ipaddr.v 10 (40 + i) 0 0) in
  List.init n (fun k ->
      Flow.make
        ~src:(Ipaddr.of_int (base + (k mod 250) + 1))
        ~dst:(Ipaddr.v 172 30 (k / 250 mod 250) 1)
        ~proto:Flow.Tcp
        ~sport:(10000 + (k mod 50000))
        ~dport:443 ())

let run_once ~moves ~flows =
  let fab = Fabric.create ~seed:(moves + flows) () in
  let pairs =
    List.init moves (fun i ->
        let d1 = Opennf_nfs.Dummy.create () in
        let d2 = Opennf_nfs.Dummy.create () in
        Opennf_nfs.Dummy.seed_flows d1 (keys_in_subnet i flows);
        let nf1, _ =
          Fabric.add_nf fab
            ~name:(Printf.sprintf "src%d" i)
            ~impl:(Opennf_nfs.Dummy.impl d1) ~costs:Costs.dummy
        in
        let nf2, _ =
          Fabric.add_nf fab
            ~name:(Printf.sprintf "dst%d" i)
            ~impl:(Opennf_nfs.Dummy.impl d2) ~costs:Costs.dummy
        in
        (i, nf1, nf2))
  in
  let durations = ref [] in
  Proc.spawn fab.engine (fun () ->
      List.iter
        (fun (i, nf1, _) ->
          Controller.set_route fab.ctrl
            (Filter.of_src_prefix (subnet_prefix i))
            nf1)
        pairs);
  H.run_at fab ~at:1.0 (fun () ->
      let ivars =
        List.map
          (fun (i, nf1, nf2) ->
            Move.start fab.ctrl
              (Move.spec ~src:nf1 ~dst:nf2
                 ~filter:(Filter.of_src_prefix (subnet_prefix i))
                 ~guarantee:Move.Loss_free ~parallel:true ()))
          pairs
      in
      List.iter
        (fun ivar ->
          let report = Op_error.ok_exn (Proc.Ivar.read ivar) in
          durations := Move.duration report :: !durations)
        ivars);
  let n = List.length !durations in
  List.fold_left ( +. ) 0.0 !durations /. float_of_int (max 1 n)

let move_counts = [ 1; 2; 4; 8; 12; 16; 20 ]
let flow_counts = [ 1000; 2000; 3000 ]

let run () =
  H.section
    "Figure 13: avg time per loss-free move vs simultaneous moves (dummy NFs)";
  let rows =
    List.map
      (fun moves ->
        string_of_int moves
        :: List.map (fun flows -> H.ms (run_once ~moves ~flows)) flow_counts)
      move_counts
  in
  H.table
    ~header:
      ("simultaneous moves"
      :: List.map (fun f -> Printf.sprintf "%d flows (ms)" f) flow_counts)
    rows;
  H.note
    "Expected shape: average per-move time grows ~linearly with the \
     number of simultaneous moves and with the per-move flow count (the \
     controller CPU is the bottleneck)."

let () = H.register ~id:"fig13" ~descr:"controller scalability (dummy NFs)" run
