(* Tests for the discrete-event engine and the effect-based processes. *)

module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:0.3 (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:0.1 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:0.2 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~delay:0.5 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO at equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  Engine.schedule e ~delay:1.5 (fun () -> seen := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clock at event" 1.5 !seen

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~delay:2.0 (fun () -> fired := true);
  Engine.run ~until:1.0 e;
  Alcotest.(check bool) "not yet" false !fired;
  Alcotest.(check int) "still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "eventually" true !fired

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () ->
      Alcotest.(check bool) "raises" true
        (try
           Engine.schedule_at e 0.5 ignore;
           false
         with Invalid_argument _ -> true));
  Engine.run e

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:0.1 (fun () ->
      log := "a" :: !log;
      Engine.schedule e ~delay:0.1 (fun () -> log := "c" :: !log));
  Engine.schedule e ~delay:0.15 (fun () -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "interleaved" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_many_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rng = Engine.rng e in
  for _ = 1 to 10_000 do
    Engine.schedule e ~delay:(Opennf_util.Rng.float rng 10.0) (fun () -> incr count)
  done;
  Engine.run e;
  Alcotest.(check int) "all ran" 10_000 !count;
  Alcotest.(check int) "processed counter" 10_000 (Engine.processed e)

(* --- processes ---------------------------------------------------------- *)

let test_proc_sleep_sequence () =
  let e = Engine.create () in
  let log = ref [] in
  Proc.spawn e (fun () ->
      log := (Engine.now e, "start") :: !log;
      Proc.sleep 1.0;
      log := (Engine.now e, "mid") :: !log;
      Proc.sleep 0.5;
      log := (Engine.now e, "end") :: !log);
  Engine.run e;
  Alcotest.(check (list (pair (float 1e-9) string)))
    "timeline"
    [ (0.0, "start"); (1.0, "mid"); (1.5, "end") ]
    (List.rev !log)

let test_proc_ivar_blocks () =
  let e = Engine.create () in
  let iv = Proc.Ivar.create e in
  let got = ref None in
  Proc.spawn e (fun () -> got := Some (Proc.Ivar.read iv));
  Proc.spawn e (fun () ->
      Proc.sleep 2.0;
      Proc.Ivar.fill iv 42);
  Engine.run e;
  Alcotest.(check (option int)) "received" (Some 42) !got

let test_proc_ivar_already_filled () =
  let e = Engine.create () in
  let iv = Proc.Ivar.create e in
  Proc.Ivar.fill iv "x";
  let got = ref "" in
  Proc.spawn e (fun () -> got := Proc.Ivar.read iv);
  Engine.run e;
  Alcotest.(check string) "immediate read" "x" !got

let test_proc_ivar_double_fill () =
  let e = Engine.create () in
  let iv = Proc.Ivar.create e in
  Proc.Ivar.fill iv 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Proc.Ivar.fill iv 2)

let test_proc_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Proc.Ivar.create e in
  let sum = ref 0 in
  for _ = 1 to 5 do
    Proc.spawn e (fun () -> sum := !sum + Proc.Ivar.read iv)
  done;
  Proc.spawn e (fun () ->
      Proc.sleep 1.0;
      Proc.Ivar.fill iv 10);
  Engine.run e;
  Alcotest.(check int) "all readers resumed" 50 !sum

let test_proc_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Proc.Mailbox.create e in
  let got = ref [] in
  Proc.spawn e (fun () ->
      for _ = 1 to 5 do
        got := Proc.Mailbox.recv mb :: !got
      done);
  Proc.spawn e (fun () ->
      for i = 1 to 5 do
        Proc.Mailbox.send mb i;
        Proc.sleep 0.1
      done);
  Engine.run e;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_proc_mailbox_buffers_before_recv () =
  let e = Engine.create () in
  let mb = Proc.Mailbox.create e in
  Proc.Mailbox.send mb "early";
  Alcotest.(check int) "queued" 1 (Proc.Mailbox.length mb);
  let got = ref "" in
  Proc.spawn e (fun () -> got := Proc.Mailbox.recv mb);
  Engine.run e;
  Alcotest.(check string) "delivered" "early" !got

let test_proc_blocking_outside_raises () =
  Alcotest.check_raises "sleep outside process" Proc.Not_in_process (fun () ->
      Proc.sleep 1.0)

(* A process parked on the internal suspend primitive (here through an
   ivar) stays parked across a drained engine and resumes when code
   outside the engine releases it. *)
let test_proc_suspend_resume () =
  let e = Engine.create () in
  let release = Proc.Ivar.create e in
  let stage = ref 0 in
  Proc.spawn e (fun () ->
      stage := 1;
      Proc.Ivar.read release;
      stage := 2);
  Engine.run e;
  Alcotest.(check int) "parked" 1 !stage;
  Proc.Ivar.fill release ();
  Engine.run e;
  Alcotest.(check int) "resumed" 2 !stage

let test_proc_many_interleaved () =
  let e = Engine.create () in
  let total = ref 0 in
  for i = 1 to 100 do
    Proc.spawn e (fun () ->
        Proc.sleep (float_of_int (i mod 7) /. 10.0);
        total := !total + i)
  done;
  Engine.run e;
  Alcotest.(check int) "all processes ran" 5050 !total

(* Schedule and dispatch one event with one other event pending: the
   event record (6 words) and its boxed time (2) are all it allocates.
   The dispatch loop's peek returns the event itself, not an option;
   the wheel's sorted insert returns the chain's new head instead of
   taking a closure; and the minimum search keeps its candidate in a
   local, not a ref a closure captures. It was 17 words with all
   three. *)
let test_engine_dispatch_alloc_budget () =
  let e = Engine.create () in
  Engine.schedule_at e 1e9 ignore;
  let n = 100_000 and left = ref 0 in
  let rec tick () =
    decr left;
    if !left > 0 then Engine.schedule e ~delay:1e-6 tick
  in
  let cycle () =
    left := n;
    Engine.schedule e ~delay:1e-6 tick;
    ignore (Engine.run_until e ~until:(Engine.now e +. 1.0))
  in
  let per_event = Helpers.minor_words_per ~iters:1 cycle /. float_of_int n in
  Alcotest.(check int) "the far event stays pending" 1 (Engine.pending e);
  Alcotest.(check bool)
    (Printf.sprintf "dispatch allocates < 8.5 minor words (got %.2f)"
       per_event)
    true (per_event < 8.5)

(* [Ivar.upon] puts its callback where a reader blocked at the same
   point would resume: among the waiters in registration order, run at
   the fill as a delay-0 event; on a full ivar, after the events already
   queued. The callback runs outside any process. *)
let test_proc_ivar_upon () =
  let waiting middle =
    let e = Engine.create () in
    let iv = Proc.Ivar.create e in
    let log = ref [] in
    let note s = log := s :: !log in
    let reader name =
      Proc.spawn e (fun () ->
          note (Printf.sprintf "%s=%d" name (Proc.Ivar.read iv)));
      Engine.run e
    in
    reader "first";
    (match middle with
    | `Reader -> reader "middle"
    | `Upon -> Proc.Ivar.upon iv (fun v -> note (Printf.sprintf "middle=%d" v)));
    reader "last";
    Engine.schedule e ~delay:1.0 (fun () ->
        Engine.schedule e ~delay:0.0 (fun () -> note "before");
        Proc.Ivar.fill iv 7;
        Engine.schedule e ~delay:0.0 (fun () -> note "after"));
    Engine.run e;
    List.rev !log
  in
  let full middle =
    let e = Engine.create () in
    let iv = Proc.Ivar.create e in
    Proc.Ivar.fill iv 3;
    let log = ref [] in
    let note s = log := s :: !log in
    Engine.schedule e ~delay:0.0 (fun () -> note "queued");
    (match middle with
    | `Reader ->
      Proc.spawn e (fun () -> note (Printf.sprintf "cb=%d" (Proc.Ivar.read iv)))
    | `Upon -> Proc.Ivar.upon iv (fun v -> note (Printf.sprintf "cb=%d" v)));
    Engine.schedule e ~delay:0.0 (fun () -> note "later");
    Engine.run e;
    List.rev !log
  in
  let check = Alcotest.(check (list string)) in
  let on_fill = [ "before"; "first=7"; "middle=7"; "last=7"; "after" ] in
  check "three readers" on_fill (waiting `Reader);
  check "reader, callback, reader" on_fill (waiting `Upon);
  check "full ivar: a reader" [ "queued"; "cb=3"; "later" ] (full `Reader);
  check "full ivar: a callback" [ "queued"; "cb=3"; "later" ] (full `Upon);
  let e = Engine.create () in
  let iv = Proc.Ivar.create e in
  Proc.Ivar.upon iv (fun () -> Proc.sleep 1.0);
  Proc.Ivar.fill iv ();
  Alcotest.check_raises "a callback cannot block" Proc.Not_in_process (fun () ->
      Engine.run e)

(* One packet's hop from [Fabric.inject_at] through the switch (flow
   table, port, audit rows) and the port channel to a Dummy NF's
   completion. The packet CPU is one completion event allocated once per
   runtime, the port and the fault profiles are resolved at creation,
   no per-packet walk (the switch's actions, the runtime's event
   filters, the wide tombstones) allocates a closure, and the flow-table
   lookup returns the option made at install: 48.1 words. With the
   packet CPU as an effect-based process and string-keyed port, link
   and node lookups, the same hop read 114.1; with a boxed [Some rule]
   per lookup, 50.1. *)
let test_nf_packet_service_alloc_budget () =
  let open Opennf in
  let fab = Fabric.create ~seed:7 () in
  let d = Opennf_nfs.Dummy.create () in
  let key = Helpers.dummy_key 1 in
  Opennf_nfs.Dummy.seed_flows d [ key ];
  let nf, rt =
    Fabric.add_nf fab ~name:"dummy" ~impl:(Opennf_nfs.Dummy.impl d)
      ~costs:Opennf_sb.Costs.dummy
  in
  Fabric.run_proc fab (fun () ->
      Controller.set_route fab.Fabric.ctrl Opennf_net.Filter.any nf);
  let n = 1_000 in
  let packets =
    Array.init n (fun id ->
        Opennf_net.Packet.create ~id ~key ~sent_at:0.0 ())
  in
  let batch () =
    let t0 = Engine.now fab.Fabric.engine in
    Array.iteri
      (fun i p ->
        Fabric.inject_at fab (t0 +. (1e-4 *. float_of_int (i + 1))) p)
      packets;
    Fabric.run fab
  in
  let per_packet =
    Helpers.minor_words_per ~iters:3 batch /. float_of_int n
  in
  Alcotest.(check int) "every packet processed" (4 * n)
    (Opennf_sb.Runtime.processed_count rt);
  Alcotest.(check bool)
    (Printf.sprintf "NF packet service allocates < 49 minor words (got %.1f)"
       per_packet)
    true (per_packet < 49.0)

let suite =
  [
    Alcotest.test_case "engine: time order" `Quick test_engine_time_order;
    Alcotest.test_case "engine: FIFO on ties" `Quick test_engine_fifo_ties;
    Alcotest.test_case "engine: clock" `Quick test_engine_clock_advances;
    Alcotest.test_case "engine: run until" `Quick test_engine_until;
    Alcotest.test_case "engine: rejects the past" `Quick test_engine_rejects_past;
    Alcotest.test_case "engine: nested scheduling" `Quick
      test_engine_nested_scheduling;
    Alcotest.test_case "engine: 10k random events" `Quick test_engine_many_events;
    Alcotest.test_case "proc: sleep timeline" `Quick test_proc_sleep_sequence;
    Alcotest.test_case "proc: ivar blocks until filled" `Quick
      test_proc_ivar_blocks;
    Alcotest.test_case "proc: ivar immediate read" `Quick
      test_proc_ivar_already_filled;
    Alcotest.test_case "proc: ivar double fill" `Quick test_proc_ivar_double_fill;
    Alcotest.test_case "proc: ivar broadcast" `Quick
      test_proc_ivar_multiple_readers;
    Alcotest.test_case "proc: mailbox FIFO" `Quick test_proc_mailbox_fifo;
    Alcotest.test_case "proc: mailbox buffers" `Quick
      test_proc_mailbox_buffers_before_recv;
    Alcotest.test_case "proc: blocking outside raises" `Quick
      test_proc_blocking_outside_raises;
    Alcotest.test_case "proc: suspend/resume" `Quick test_proc_suspend_resume;
    Alcotest.test_case "proc: 100 interleaved" `Quick test_proc_many_interleaved;
    Alcotest.test_case "alloc budget: engine dispatch" `Quick
      test_engine_dispatch_alloc_budget;
    Alcotest.test_case "ivar upon: resumes where a reader would" `Quick
      test_proc_ivar_upon;
    Alcotest.test_case "alloc budget: NF packet service" `Quick
      test_nf_packet_service_alloc_budget;
  ]
