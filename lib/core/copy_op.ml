module Proc = Opennf_sim.Proc
open Opennf_net
open Opennf_state

let ( let* ) = Result.bind

type report = {
  cp_filter : Filter.t;
  cp_src : string;
  cp_dst : string;
  cp_scope : Scope.t list;
  started : float;
  finished : float;
  chunks : int;
  state_bytes : int;
}

let duration r = r.finished -. r.started

let pp_report ppf r =
  Format.fprintf ppf "copy %s->%s %a: %.1fms, %d chunks, %dB" r.cp_src r.cp_dst
    Filter.pp r.cp_filter
    (1000.0 *. duration r)
    r.chunks r.state_bytes

(* Copy never deletes at the source and never touches forwarding state,
   so there is nothing to roll back: a failure simply reports which call
   died. The destination may hold a partial import — harmless, since
   imports merge and the next copy round completes it. *)
let run t ~src ~dst ~filter ?(scope = [ Scope.Multi ]) ?options
    ?(parallel = true) () =
  let options =
    match options with Some o -> o | None -> Op_options.make ~parallel ()
  in
  let frame = Op_engine.start ~kind:"copy" t ~options in
  let parallel = options.Op_options.parallel in
  let tally = Op_engine.tally () in
  let copy sc =
    Op_engine.transfer frame ~src ~dst ~scope:sc ~filter ~parallel tally
  in
  Op_engine.finish frame
  @@
  let* () = if Scope.mem Scope.Per scope then copy Scope.Per else Ok () in
  let* () = if Scope.mem Scope.Multi scope then copy Scope.Multi else Ok () in
  let* () = if Scope.mem Scope.All scope then copy Scope.All else Ok () in
  Ok
    {
      cp_filter = filter;
      cp_src = Controller.nf_name src;
      cp_dst = Controller.nf_name dst;
      cp_scope = scope;
      started = frame.Op_engine.started;
      finished = Op_engine.now frame;
      chunks = tally.Op_engine.chunks;
      state_bytes = tally.Op_engine.bytes;
    }

(* A copy reads the source, writes the destination and leaves
   forwarding state alone. *)
let footprint ~src ~dst ~filter =
  Sched.Footprint.make ~filters:[ filter ]
    ~reads:[ Controller.nf_name src ]
    ~writes:[ Controller.nf_name dst ]
    ()

let submit_sharded group ~src ~dst ~filter ?scope ?options ?parallel () =
  Shard.submit group
    ~footprint:(footprint ~src ~dst ~filter)
    ~nfs:[ src; dst ]
    (fun () ->
      run (Controller.nf_home src) ~src ~dst ~filter ?scope ?options ?parallel
        ())
