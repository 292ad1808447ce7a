(* Testbeds of the four benchmark workloads.

   Built only from the library's public result API (never a [*_exn]
   wrapper, a [*_reference] oracle, [~par], [~queue] or a bench/
   module), so simplifying the library never requires editing the
   benchmark. The bed constructors are small copies of the bench
   harness's.

   Every bed takes the seed, an optional observability hub and [wrap],
   which every NF implementation passes through before its runtime sees
   it (the identity in measured runs, the timing wrapper in the traced
   run). The seed picks the address space the flow keys are drawn from,
   so different seeds exercise different hash layouts; the default seed
   101 gives exactly the keys (and the Fabric/generator seeds 101/303)
   of the fig10 experiment. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
module Faults = Opennf_sim.Faults
module Costs = Opennf_sb.Costs
module Nf_api = Opennf_sb.Nf_api
module Runtime = Opennf_sb.Runtime
module Backend = Opennf_state.Backend
module Chunk = Opennf_state.Chunk
module Prads = Opennf_nfs.Prads
module Dummy = Opennf_nfs.Dummy
module Nat = Opennf_nfs.Nat
module Failover = Opennf_apps.Failover
module Gen = Opennf_trace.Gen
open Opennf_net
open Opennf

let default_seed = 101

(* Address-space offset in [0, 200); 0 at the default seed. *)
let shift seed = (((seed - default_seed) mod 200) + 200) mod 200

type size = Full | Smoke

(* What every bed hands the benchmark besides its own handles: the
   fabric, the NF runtimes (for queue sampling), the packets injected up
   front, and the inputs of the isolated NF replay — the workload's flow
   keys, its primary NF as the run leaves it, and a constructor for a
   fresh instance of the same NF. *)
type common = {
  fab : Fabric.t;
  runtimes : Runtime.t list;
  injected : int;
  keys : Flow.key array;
  nf : Nf_api.impl;
  fresh : unit -> Nf_api.impl;
}

let fresh_prads () = Prads.impl (Prads.create ())

(* --- move_lfop: the paper's Figure 10 move ---------------------------- *)

type move_bed = { m : common; m_spec : Move.spec; m_move_at : float }

(* Two PRADS monitors, [flows] flows at 2,500 packets/s, everything
   initially routed to the first one (the §8.1.1 testbed), and one
   LF+OP PL+ER move of every flow once all of their state exists. *)
let move_bed ~seed ?obs ~wrap size =
  let flows = match size with Full -> 500 | Smoke -> 100 in
  let rate = 2500.0 in
  let k = shift seed in
  let fab = Fabric.create ~seed ?obs () in
  let p1 = Prads.create () in
  let add name prads =
    Fabric.add_nf fab ~name ~impl:(wrap (Prads.impl prads)) ~costs:Costs.prads
  in
  let nf1, rt1 = add "prads1" p1 in
  let nf2, rt2 = add "prads2" (Prads.create ()) in
  let handshakes = 2.0 *. float_of_int flows /. rate in
  let schedule, keys =
    Gen.steady_flows
      (Gen.create ~seed:(seed * 3) ())
      ~flows ~rate ~start:0.05 ~duration:(handshakes +. 2.5)
      ~src_net:(Ipaddr.v 10 (1 + k) 0 0)
      ~dst_net:(Ipaddr.v 172 16 k 0)
      ()
  in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  {
    m =
      {
        fab;
        runtimes = [ rt1; rt2 ];
        injected = List.length schedule;
        keys = Array.of_list keys;
        nf = Prads.impl p1;
        fresh = fresh_prads;
      };
    m_spec =
      Move.spec ~src:nf1 ~dst:nf2 ~filter:Filter.any
        ~guarantee:Move.Order_preserving ~parallel:true ~early_release:true ();
    m_move_at = 0.05 +. handshakes +. 0.5;
  }

(* --- traffic_1m: the data plane under a million resident flows -------- *)

(* The resident state: one PRADS instance preloaded with [preload]
   connections plus the active connections, whose handshakes it has
   already seen. *)
type traffic_nf = {
  prads : Prads.t;
  preload : int;
  active : Flow.key array;
  rate : float;
}

(* Preloaded connections: one per index, 64 per source host. *)
let preload_packet ~k i =
  Packet.create ~id:(-1 - i)
    ~key:
      (Flow.make
         ~src:(Ipaddr.of_int ((0x0A000000 lor (k lsl 16)) + (i lsr 6)))
         ~dst:(Ipaddr.of_int 0xC0A80101)
         ~sport:(1024 + (i land 63))
         ~dport:80 ())
    ~sent_at:0.0 ()

(* Active connections live in 11/8, disjoint from the preload's 10/8. *)
let active_key ~k i =
  Flow.make
    ~src:(Ipaddr.of_int (0x0B000000 + (k lsl 16) + (i / 250) + 1))
    ~dst:(Ipaddr.v 172 16 0 ((i mod 250) + 1))
    ~sport:(10000 + (i mod 50000))
    ~dport:80 ()

(* The rate stays below one PRADS instance's modeled capacity (75 us of
   NF CPU per packet, 13,333 packets/s): above it the NF queue grows
   without bound and a window's packets are served after it ends. *)
let traffic_nf ~seed size =
  let preload, flows, rate =
    match size with
    | Full -> (1_000_000, 20_000, 10_000.0)
    | Smoke -> (20_000, 2_000, 4_000.0)
  in
  let k = shift seed in
  let prads = Prads.create () in
  let impl = Prads.impl prads in
  for i = 0 to preload - 1 do
    impl.Nf_api.process_packet (preload_packet ~k i)
  done;
  let active = Array.init flows (active_key ~k) in
  Array.iteri
    (fun i key ->
      let p ~key ~flags ~seq =
        Packet.create ~id:(-1 - preload - i) ~key ~flags ~seq ~sent_at:0.0 ()
      in
      impl.Nf_api.process_packet (p ~key ~flags:[ Packet.Syn ] ~seq:0);
      impl.Nf_api.process_packet
        (p ~key:(Flow.reverse key) ~flags:[ Packet.Syn; Packet.Ack ] ~seq:1))
    active;
  { prads; preload; active; rate }

type traffic_bed = {
  t : common;
  t_start : float;
  mutable t_injected : int;
  mutable t_stop : bool;
}

(* A fabric around the resident PRADS, carrying data packets of the
   active connections at an aggregate [rate] packets/s, round-robin,
   alternating directions. The traffic is an open loop fixed in virtual
   time, produced by one self-rescheduling event so the schedule is
   never materialised; it runs until [t_stop] is set. Every bed over the
   same [traffic_nf] replays the same packets. *)
let traffic_bed ~seed ?obs ~wrap n =
  let fab = Fabric.create ~seed ?obs () in
  let raw = Prads.impl n.prads in
  let nf, rt = Fabric.add_nf fab ~name:"prads1" ~impl:(wrap raw) ~costs:Costs.prads in
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf);
  let keys = n.active in
  let flows = Array.length keys in
  let b =
    {
      t = { fab; runtimes = [ rt ]; injected = 0; keys; nf = raw; fresh = fresh_prads };
      t_start = 0.05;
      t_injected = 0;
      t_stop = false;
    }
  in
  let gen = Gen.create ~seed:(seed * 7) () in
  let at i = b.t_start +. (float_of_int i /. n.rate) in
  let rec tick i () =
    if not b.t_stop then begin
      let seq = 2 + (i / flows) in
      let key = keys.(i mod flows) in
      let key = if seq land 1 = 0 then key else Flow.reverse key in
      let _, p = Gen.packet gen ~at:(at i) ~key ~flags:[ Packet.Ack ] ~seq () in
      Fabric.inject fab p;
      b.t_injected <- b.t_injected + 1;
      Engine.schedule_at fab.engine (at (i + 1)) (tick (i + 1))
    end
  in
  Engine.schedule_at fab.engine (at 0) (tick 0);
  b

(* --- ops_sharded: the control plane alone ----------------------------- *)

type shard_pair = { src : Dummy.t; dst : Dummy.t; spec : Move.spec }
type shard_bed = { s : common; s_pairs : shard_pair list }

let shard_submit_at = 1.0

(* Eight disjoint pairs of dummy NFs, pair [i] homed on shard
   [i mod shards], each source preloaded with [flows] flows of its own
   /16, and one loss-free parallel move per pair. Controller CPU
   dominates (3 inbound messages per flow). *)
let shard_bed ~seed ?obs ~wrap ~shards size =
  let flows = match size with Full -> 2_000 | Smoke -> 200 in
  let k = shift seed in
  let octet i = (160 + (8 * k) + i) land 255 in
  let servers = Ipaddr.Prefix.make (Ipaddr.v 172 31 0 0) 16 in
  let keys i =
    let base = Ipaddr.to_int (Ipaddr.v 10 (octet i) 0 0) in
    List.init flows (fun j ->
        Flow.make
          ~src:(Ipaddr.of_int (base + (j mod 250) + 1))
          ~dst:(Ipaddr.v 172 31 0 1) ~proto:Flow.Tcp ~sport:(20000 + j)
          ~dport:443 ())
  in
  let fab = Fabric.create ~seed ?obs ~shards () in
  let runtimes = ref [] in
  let pairs =
    List.init 8 (fun i ->
        let src = Dummy.create () and dst = Dummy.create () in
        Dummy.seed_flows src (keys i);
        let add name d =
          let nf, rt =
            Fabric.add_nf fab ~shard:(i mod shards)
              ~name:(Printf.sprintf "%s%d" name i)
              ~impl:(wrap (Dummy.impl d)) ~costs:Costs.dummy
          in
          runtimes := rt :: !runtimes;
          nf
        in
        let nf1 = add "src" src in
        let nf2 = add "dst" dst in
        let filter =
          Filter.make ~src:(Ipaddr.Prefix.make (Ipaddr.v 10 (octet i) 0 0) 16)
            ~dst:servers ()
        in
        ( filter,
          nf1,
          {
            src;
            dst;
            spec =
              Move.spec ~src:nf1 ~dst:nf2 ~filter ~guarantee:Move.Loss_free
                ~parallel:true ();
          } ))
  in
  Proc.spawn fab.engine (fun () ->
      List.iter (fun (filter, nf1, _) -> Controller.set_route fab.ctrl filter nf1) pairs);
  let pairs = List.map (fun (_, _, p) -> p) pairs in
  {
    s =
      {
        fab;
        runtimes = List.rev !runtimes;
        injected = 0;
        keys = Array.of_list (List.concat (List.init 8 keys));
        nf = Dummy.impl (List.hd pairs).src;
        fresh = (fun () -> Dummy.impl (Dummy.create ()));
      };
    s_pairs = pairs;
  }

(* --- failover_repl: per-packet state replication and a surprise crash - *)

let fo_up = 0.05
let fo_ramp_end = 0.45
let fo_steady = 0.5
let fo_end = 1.9
let fo_fail_at = 1.5
let fo_snap_at = fo_fail_at +. 0.01
let fo_reroute_at = fo_fail_at +. 0.05
let fo_churn_period = 0.1
let fo_ka_per_flow = 0.2 (* keepalive pps per established flow *)

(* Establishment ramp, then sparse keepalives round-robin over every
   live flow plus a steady churn of new flows that stops shortly before
   the crash, so every flow a keepalive can hit was seen by the
   primary. No teardown: the conntrack table is full at the crash.
   Returns the schedule and every flow key. *)
let fo_workload ~seed ~flows =
  let k = shift seed in
  let base_key i =
    Flow.make
      ~src:(Ipaddr.of_int ((0x0A000000 lor (k lsl 16)) + (i lsr 6)))
      ~dst:(Ipaddr.of_int 0xC0A80101)
      ~sport:(1024 + (i land 63))
      ~dport:80 ()
  in
  let churn_key i =
    Flow.make
      ~src:(Ipaddr.of_int ((0x0B000000 lor (k lsl 16)) + (i lsr 6)))
      ~dst:(Ipaddr.of_int 0xC0A80102)
      ~sport:(1024 + (i land 63))
      ~dport:443 ()
  in
  let gen = Gen.create ~seed:(seed * 11) () in
  let acc = ref [] in
  let emit ~at ~key ?flags ?seq () =
    acc := Gen.packet gen ~at ~key ?flags ?seq () :: !acc
  in
  let est_dt = (fo_ramp_end -. fo_up) /. float_of_int (2 * flows) in
  let births = ref [] in
  for i = 0 to flows - 1 do
    let key = base_key i in
    let t0 = fo_up +. (float_of_int (2 * i) *. est_dt) in
    emit ~at:t0 ~key ~flags:[ Packet.Syn ] ();
    emit ~at:(t0 +. est_dt) ~key:(Flow.reverse key)
      ~flags:[ Packet.Syn; Packet.Ack ] ~seq:1 ();
    births := (t0 +. est_dt, key) :: !births
  done;
  let per_batch = max 1 (flows / 100) in
  let batch = ref 0 in
  let t = ref (fo_steady +. 0.02) in
  while !t < fo_fail_at -. 0.05 do
    for j = 0 to per_batch - 1 do
      let key = churn_key ((!batch * per_batch) + j) in
      emit ~at:!t ~key ~flags:[ Packet.Syn ] ();
      emit ~at:(!t +. 0.001) ~key:(Flow.reverse key)
        ~flags:[ Packet.Syn; Packet.Ack ] ~seq:1 ();
      births := (!t +. 0.001, key) :: !births
    done;
    incr batch;
    t := !t +. fo_churn_period
  done;
  let births =
    Array.of_list
      (List.sort
         (fun (a, ka) (b, kb) ->
           match Float.compare a b with 0 -> Flow.compare ka kb | c -> c)
         !births)
  in
  let ka_dt = 1.0 /. (fo_ka_per_flow *. float_of_int flows) in
  let alive = ref 0 and idx = ref 0 and t = ref fo_steady in
  while !t < fo_end do
    while !alive < Array.length births && fst births.(!alive) <= !t do
      incr alive
    done;
    if !alive > 0 then begin
      let _, key = births.(!idx mod !alive) in
      emit ~at:!t ~key ~flags:[ Packet.Ack ] ~seq:(2 + !idx) ();
      incr idx
    end;
    t := !t +. ka_dt
  done;
  (!acc, Array.map snd births)

type fo_bed = {
  f : common;
  f_nat1 : Nat.t;
  f_nat2 : Nat.t;
  f_primary : Backend.t;
  f_app : Failover.t option ref;
}

(* An iptables-like NAT over a replicated backend pair, the Failover
   app in promote mode, and a surprise crash of the primary at
   [fo_fail_at]. *)
let fo_bed ~seed ?obs ~wrap size =
  let flows = match size with Full -> 10_000 | Smoke -> 1_000 in
  let fab = Fabric.create ~seed ?obs () in
  let p, s =
    Backend.replicated_pair fab.Fabric.engine ~name:"fo" ~faults:fab.Fabric.faults ()
  in
  let nat1 = Nat.create ~backend:p ~port_base:1 ~port_limit:65535 () in
  let nat2 = Nat.create ~backend:s ~port_base:1 ~port_limit:65535 () in
  let nf1, rt1 =
    Fabric.add_nf ~backend:p fab ~name:"nat1" ~impl:(wrap (Nat.impl nat1))
      ~costs:Costs.dummy
  in
  let nf2, rt2 =
    Fabric.add_nf ~backend:s fab ~name:"nat2" ~impl:(wrap (Nat.impl nat2))
      ~costs:Costs.dummy
  in
  let schedule, keys = fo_workload ~seed ~flows in
  List.iter (fun (at, p) -> Fabric.inject_at fab at p) schedule;
  Proc.spawn fab.engine (fun () -> Controller.set_route fab.ctrl Filter.any nf1);
  Faults.crash_at fab.faults ~node:"nat1" fo_fail_at;
  let app = ref None in
  Proc.spawn fab.engine (fun () ->
      app := Some (Failover.init_standby fab.ctrl ~normal:nf1 ~standby:nf2 ()));
  {
    f =
      {
        fab;
        runtimes = [ rt1; rt2 ];
        injected = List.length schedule;
        keys;
        nf = Nat.impl nat1;
        fresh = (fun () -> Nat.impl (Nat.create ~port_base:1 ~port_limit:65535 ()));
      };
    f_nat1 = nat1;
    f_nat2 = nat2;
    f_primary = p;
    f_app = app;
  }

(* Live primary entries at the crash instant, and how many of them the
   standby holds byte for byte. *)
let coverage b =
  let primary = Nat.impl b.f_nat1 and standby = Nat.impl b.f_nat2 in
  List.fold_left
    (fun (live, exact) fl ->
      match primary.Nf_api.export_perflow fl with
      | None -> (live, exact)
      | Some pc ->
        let same =
          match standby.Nf_api.export_perflow fl with
          | Some sc -> pc.Chunk.kind = sc.Chunk.kind && pc.Chunk.data = sc.Chunk.data
          | None -> false
        in
        (live + 1, if same then exact + 1 else exact))
    (0, 0)
    (primary.Nf_api.list_perflow Filter.any)
