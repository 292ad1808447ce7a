module Engine = Opennf_sim.Engine
module Proc = Opennf_sim.Proc
open Opennf_net
open Opennf_state

let ( let* ) = Result.bind

(* --- chunk accounting ----------------------------------------------------- *)

type tally = { mutable chunks : int; mutable bytes : int }

let tally () = { chunks = 0; bytes = 0 }

let chunk_bytes chunks =
  List.fold_left (fun acc (_, c) -> acc + Chunk.size c) 0 chunks

let account t chunks =
  t.chunks <- t.chunks + List.length chunks;
  t.bytes <- t.bytes + chunk_bytes chunks

(* --- operation frame ------------------------------------------------------ *)

type frame = {
  ctrl : Controller.t;
  engine : Engine.t;
  started : float;
  options : Op_options.t;
  obs : Opennf_obs.Hub.t;
  span : int;  (** The operation's open trace span; 0 when not tracing. *)
}

let start ?(kind = "op") ctrl ~options =
  let engine = Controller.engine ctrl in
  let obs = Controller.obs ctrl in
  let metrics = Opennf_obs.Hub.metrics obs in
  Opennf_obs.Metrics.incr (Opennf_obs.Metrics.counter metrics "op.started");
  (* When the scheduler admitted us it left its entry's span as the
     ambient parent (consumed here even when not tracing, so a stale
     value never leaks to a later op). *)
  let parent = Controller.take_op_parent ctrl in
  let span =
    if Controller.shard_count ctrl > 1 then
      Opennf_obs.Trace.span_open (Opennf_obs.Hub.trace obs) ~parent ~cat:"op"
        ~name:kind
        ~attrs:[| ("shard", Opennf_obs.Trace.Int (Controller.shard_id ctrl)) |]
        ()
    else
      Opennf_obs.Trace.span_open (Opennf_obs.Hub.trace obs) ~parent ~cat:"op"
        ~name:kind ()
  in
  { ctrl; engine; started = Engine.now engine; options; obs; span }

let now frame = Engine.now frame.engine

(* Op-level phase mark: an instant under the operation's own span, for
   protocol steps that happen outside a transfer (buffer flushes, the
   two-phase handoff). Free when not tracing. *)
let mark frame name =
  if frame.span <> 0 then
    Opennf_obs.Trace.instant
      (Opennf_obs.Hub.trace frame.obs)
      ~parent:frame.span ~cat:"op" ~name ()

(* --- observation ----------------------------------------------------------- *)

let str s = Opennf_obs.Trace.Str s

let failed_counter_name = function
  | Op_error.Nf_crashed _ -> "op.failed.nf_crashed"
  | Op_error.Timeout _ -> "op.failed.timeout"
  | Op_error.Aborted _ -> "op.failed.aborted"
  | Op_error.Bad_spec _ -> "op.failed.bad_spec"

(* Terminal accounting for one operation: outcome counters, the duration
   histogram, and the span close (status + error attrs). Passes the
   result through so operations end with [finish frame @@ ...]. *)
let finish frame result =
  let metrics = Opennf_obs.Hub.metrics frame.obs in
  if Opennf_obs.Metrics.enabled metrics then begin
    (match result with
    | Ok _ ->
      Opennf_obs.Metrics.incr (Opennf_obs.Metrics.counter metrics "op.completed")
    | Error e ->
      Opennf_obs.Metrics.incr (Opennf_obs.Metrics.counter metrics "op.failed");
      Opennf_obs.Metrics.incr
        (Opennf_obs.Metrics.counter metrics (failed_counter_name e)));
    Opennf_obs.Metrics.observe
      (Opennf_obs.Metrics.hist metrics "op.duration_s")
      (Engine.now frame.engine -. frame.started)
  end;
  if frame.span <> 0 then begin
    let trace = Opennf_obs.Hub.trace frame.obs in
    match result with
    | Ok _ ->
      Opennf_obs.Trace.span_close trace frame.span
        ~attrs:[| ("status", str "ok") |] ()
    | Error e ->
      Opennf_obs.Trace.span_close trace frame.span
        ~attrs:
          [| ("status", str "error"); ("error", str (Op_error.kind e)) |]
        ()
  end;
  result

(* Satellite of the rollback path: every rollback stamps the triggering
   error onto the op's trace as a child span, so a failed move's
   unwinding is attributable in the export. *)
let rollback_span frame err =
  Opennf_obs.Metrics.incr
    (Opennf_obs.Metrics.counter (Opennf_obs.Hub.metrics frame.obs)
       "op.rollbacks");
  let trace = Opennf_obs.Hub.trace frame.obs in
  if Opennf_obs.Trace.enabled trace then
    Opennf_obs.Trace.span_open trace ~parent:frame.span ~cat:"op"
      ~name:"rollback"
      ~attrs:
        [|
          ("error", str (Op_error.kind err));
          ("detail", str (Op_error.to_string err));
        |]
      ()
  else 0

let rollback_done frame span =
  if span <> 0 then
    Opennf_obs.Trace.span_close (Opennf_obs.Hub.trace frame.obs) span ()

(* --- small shared helpers ------------------------------------------------- *)

let bad_spec reason = Error (Op_error.Bad_spec { reason })

let ensure_alive ctrl nf =
  if not (Controller.nf_alive ctrl nf) then
    Error (Op_error.Nf_crashed { nf = Controller.nf_name nf })
  else Ok ()

(* Read every pipelined del/put ivar — even after a failure, so no
   supervised call is left dangling — and return the first error in
   list order, if any. *)
let drain_pipelined pending =
  List.fold_left
    (fun acc iv ->
      match Proc.Ivar.read iv with
      | Ok () -> acc
      | Error e -> ( match acc with None -> Some e | Some _ -> acc))
    None pending

let background ctrl f =
  let engine = Controller.engine ctrl in
  let ivar = Proc.Ivar.create engine in
  Proc.spawn engine (fun () -> Proc.Ivar.fill ivar (f ()));
  ivar

let broadcast_put ctrl ~scope ~others chunks =
  if chunks <> [] then
    List.map (fun other -> Controller.put_async ctrl other ~scope chunks) others
    |> List.iter (fun iv -> ignore (Proc.Ivar.read iv))

(* --- the shared transfer core --------------------------------------------- *)

let transfer frame ~src ~dst ~scope ~filter ?(parallel = false)
    ?(delete = false) ?(late_lock = false) ?(compress = false) ?record
    ?on_captured ?on_deleted ?on_installed ?on_put_ack tally =
  let t = frame.ctrl in
  let trace = Opennf_obs.Hub.trace frame.obs in
  let tspan =
    if Opennf_obs.Trace.enabled trace then
      Opennf_obs.Trace.span_open trace ~parent:frame.span ~cat:"op"
        ~name:"transfer"
        ~attrs:
          [|
            ("scope", str (Scope.to_string scope));
            ("src", str (Controller.nf_name src));
            ("dst", str (Controller.nf_name dst));
            ("parallel", Opennf_obs.Trace.Bool parallel);
          |]
        ()
    else 0
  in
  (* Phase marks are emitted alongside the progress hooks; they read the
     clock but never schedule, so they cannot perturb virtual time. *)
  let phase name =
    if tspan <> 0 then
      Opennf_obs.Trace.instant trace ~parent:tspan ~cat:"op" ~name ()
  in
  let fire ph hook =
    phase ph;
    Option.iter (fun f -> f ()) hook
  in
  (* Backend fast paths: when src and dst resolve to the same (shared)
     store, or to the two ends of a replication stream that already
     carries this scope, there is no state to capture, delete or
     install — the "move" is a metadata flip. The progress hooks still
     fire (in order) so protocol drivers like [Move] see the usual
     lifecycle; [record] stays empty, so a rollback re-puts nothing;
     the tally accounts zero chunks and zero bytes, honestly. Without
     backends [state_path] answers [`Transfer] and the legacy code runs
     unchanged, event for event. *)
  let path = Controller.state_path t ~src ~dst ~scope in
  let result =
    match path with
    | `Same_store ->
      phase "same-store";
      Option.iter (fun r -> r := []) record;
      fire "captured" on_captured;
      if delete then fire "deleted" on_deleted;
      fire "installed" on_installed;
      Ok []
    | `Replicated b ->
      (* Wait until the standby applied everything the primary sent, so
         traffic rerouted to it cannot observe state from before the
         last processed packet. *)
      phase "replicated";
      Backend.drain b;
      Option.iter (fun r -> r := []) record;
      fire "captured" on_captured;
      if delete then fire "deleted" on_deleted;
      fire "installed" on_installed;
      Ok []
    | `Transfer -> (
    match (scope : Scope.t) with
    | Scope.All ->
      (* All-flows state never streams, is never deleted (there is no
         delAllflows, §4.2) and ignores the filter. *)
      let* chunks = Controller.get t src ~scope:Scope.All Filter.any in
      let* () =
        if chunks <> [] then Controller.put t dst ~scope:Scope.All chunks
        else Ok ()
      in
      Ok chunks
    | Scope.Per | Scope.Multi ->
      if parallel then begin
        let pending = ref [] in
        let got =
          Controller.get t src ~scope ~late_lock ~compress
            ~on_piece:(fun flowid chunk ->
              (* Each exported chunk is (optionally) deleted at the
                 source and put at the destination immediately (§5.1.3):
                 the state is never live at both instances. *)
              Option.iter (fun r -> r := (flowid, chunk) :: !r) record;
              if delete then
                pending :=
                  Controller.del_async t src ~scope [ flowid ] :: !pending;
              let ack = Controller.put_async t dst ~scope [ (flowid, chunk) ] in
              pending := ack :: !pending;
              match on_put_ack with
              | None -> ()
              | Some f ->
                (* Runs where a reader registered now would resume:
                   with resilience on, before the put's supervisor,
                   whose process registers when it first runs. *)
                Proc.Ivar.upon ack (function
                  | Ok () ->
                    phase "ack";
                    f flowid
                  | Error _ -> ()))
            filter
        in
        (match got with
        | Ok _ -> fire "captured" on_captured
        | Error _ -> ());
        (* Drain the pipelined dels and puts even when something failed,
           so no supervised call is left dangling past a rollback. *)
        let first_err = drain_pipelined !pending in
        match (got, first_err) with
        | (Error _ as e), _ -> e
        | Ok _, Some e -> Error e
        | Ok chunks, None ->
          fire "installed" on_installed;
          Ok chunks
      end
      else begin
        let* chunks = Controller.get t src ~scope ~late_lock ~compress filter in
        Option.iter (fun r -> r := chunks) record;
        fire "captured" on_captured;
        let* () =
          if delete then Controller.del t src ~scope (List.map fst chunks)
          else Ok ()
        in
        if delete then fire "deleted" on_deleted;
        let* () =
          if chunks <> [] then Controller.put t dst ~scope chunks else Ok ()
        in
        fire "installed" on_installed;
        (match on_put_ack with
        | None -> ()
        | Some f ->
          List.iter
            (fun (flowid, _) ->
              phase "ack";
              f flowid)
            chunks);
        Ok chunks
      end)
  in
  match result with
  | Error e ->
    if tspan <> 0 then
      Opennf_obs.Trace.span_close trace tspan
        ~attrs:[| ("status", str "error"); ("error", str (Op_error.kind e)) |]
        ();
    Error e
  | Ok chunks ->
    account tally chunks;
    let metrics = Opennf_obs.Hub.metrics frame.obs in
    if Opennf_obs.Metrics.enabled metrics then begin
      Opennf_obs.Metrics.add
        (Opennf_obs.Metrics.counter metrics "op.chunks")
        (List.length chunks);
      Opennf_obs.Metrics.add
        (Opennf_obs.Metrics.counter metrics "op.bytes")
        (chunk_bytes chunks)
    end;
    if tspan <> 0 then
      Opennf_obs.Trace.span_close trace tspan
        ~attrs:
          [|
            ("status", str "ok");
            ("chunks", Opennf_obs.Trace.Int (List.length chunks));
          |]
        ();
    Ok ()
