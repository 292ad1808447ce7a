open Effect
open Effect.Deep

exception Not_in_process

type _ Effect.t += Sleep : float -> unit Effect.t

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t
(* [Suspend register] captures the current continuation as a resume thunk
   and hands it to [register]; the process stays blocked until the thunk
   is called (typically scheduled on the engine by Ivar.fill or
   Mailbox.send). *)

let spawn engine body =
  let run () =
    match_with body ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sleep delay ->
              Some
                (fun (k : (a, unit) continuation) ->
                  Engine.schedule engine ~delay (fun () -> continue k ()))
            | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  register (fun () -> continue k ()))
            | _ -> None);
      }
  in
  Engine.schedule engine ~delay:0.0 run

let sleep delay =
  try perform (Sleep delay) with Effect.Unhandled _ -> raise Not_in_process

module Ivar = struct
  type 'a state = Empty of (unit -> unit) list | Full of 'a
  type 'a t = { engine : Engine.t; mutable state : 'a state }

  let create engine = { engine; state = Empty [] }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
      t.state <- Full v;
      (* Resume in registration order, after currently queued events. *)
      List.iter
        (fun resume -> Engine.schedule t.engine ~delay:0.0 resume)
        (List.rev waiters)

  let fill_if_empty t v =
    match t.state with
    | Full _ -> false
    | Empty _ ->
      fill t v;
      true

  let peek t = match t.state with Full v -> Some v | Empty _ -> None

  (* A callback waits in the same list as blocked readers' resume
     thunks, so [fill] schedules it in the slot a reader registered at
     this point would resume in. *)
  let upon t f =
    match t.state with
    | Full v -> Engine.schedule t.engine ~delay:0.0 (fun () -> f v)
    | Empty waiters ->
      let run () =
        match t.state with Full v -> f v | Empty _ -> assert false
      in
      t.state <- Empty (run :: waiters)

  let read t =
    match t.state with
    | Full v -> v
    | Empty _ ->
      (try
         perform
           (Suspend
              (fun resume ->
                match t.state with
                | Full _ ->
                  (* Filled between the check and the registration cannot
                     happen in a single-threaded engine, but resume anyway
                     to be safe. *)
                  Engine.schedule t.engine ~delay:0.0 resume
                | Empty waiters -> t.state <- Empty (resume :: waiters)))
       with Effect.Unhandled _ -> raise Not_in_process);
      (match t.state with
      | Full v -> v
      | Empty _ -> assert false)

  let read_timeout t ~timeout =
    (match t.state with
    | Full _ -> ()
    | Empty _ -> (
      try
        perform
          (Suspend
             (fun resume ->
               (* Resume on whichever comes first — the fill or the
                  timer — and make the loser a no-op. *)
               let resumed = ref false in
               let once () =
                 if not !resumed then begin
                   resumed := true;
                   resume ()
                 end
               in
               (match t.state with
               | Full _ -> Engine.schedule t.engine ~delay:0.0 once
               | Empty waiters -> t.state <- Empty (once :: waiters));
               Engine.schedule t.engine ~delay:timeout once))
      with Effect.Unhandled _ -> raise Not_in_process));
    peek t
end

module Mailbox = struct
  type 'a t = {
    engine : Engine.t;
    queue : 'a Queue.t;
    waiters : (unit -> unit) Queue.t;  (** Blocked receivers, oldest first. *)
  }

  let create engine =
    { engine; queue = Queue.create (); waiters = Queue.create () }

  let send t v =
    Queue.push v t.queue;
    if not (Queue.is_empty t.waiters) then
      Engine.schedule t.engine ~delay:0.0 (Queue.pop t.waiters)

  let rec recv t =
    if Queue.is_empty t.queue then begin
      (try
         perform
           (Suspend (fun resume -> Queue.push resume t.waiters))
       with Effect.Unhandled _ -> raise Not_in_process);
      (* A competing receiver may have taken the message; loop. *)
      recv t
    end
    else Queue.pop t.queue

  let length t = Queue.length t.queue
end
