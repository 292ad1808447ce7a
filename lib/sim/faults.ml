module Rng = Opennf_util.Rng

type link_profile = { drop : float; dup : float; jitter : float }

type node = {
  mutable crashed_at : float option;  (* Time the crash takes effect. *)
  mutable hangs : (float * float) list;  (* Unresponsive windows. *)
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  links : (string, link_profile) Hashtbl.t;
  nodes : (string, node) Hashtbl.t;
  mutable dropped : int;
  mutable duplicated : int;
}

let create engine ?(seed = 0xFA17) () =
  {
    engine;
    rng = Rng.create ~seed;
    links = Hashtbl.create 8;
    nodes = Hashtbl.create 8;
    dropped = 0;
    duplicated = 0;
  }

(* --- links --------------------------------------------------------------- *)

let set_link t ~name ?(drop = 0.0) ?(dup = 0.0) ?(jitter = 0.0) () =
  Hashtbl.replace t.links name { drop; dup; jitter }

let clear_link t ~name = Hashtbl.remove t.links name

let plan t ~link =
  match Hashtbl.find_opt t.links link with
  | None -> (1, 0.0)
  | Some p ->
    let copies =
      if p.drop > 0.0 && Rng.float t.rng 1.0 < p.drop then begin
        t.dropped <- t.dropped + 1;
        0
      end
      else if p.dup > 0.0 && Rng.float t.rng 1.0 < p.dup then begin
        t.duplicated <- t.duplicated + 1;
        2
      end
      else 1
    in
    let jitter = if p.jitter > 0.0 then Rng.float t.rng p.jitter else 0.0 in
    (copies, jitter)

let dropped_count t = t.dropped
let duplicated_count t = t.duplicated

(* --- nodes --------------------------------------------------------------- *)

let node t name =
  match Hashtbl.find_opt t.nodes name with
  | Some n -> n
  | None ->
    let n = { crashed_at = None; hangs = [] } in
    Hashtbl.add t.nodes name n;
    n

let crash_at t ~node:name time =
  let n = node t name in
  match n.crashed_at with
  | Some existing when existing <= time -> ()
  | Some _ | None -> n.crashed_at <- Some time

let crash_now t ~node:name = crash_at t ~node:name (Engine.now t.engine)

let hang t ~node:name ~from_ ~until =
  if until < from_ then invalid_arg "Faults.hang: until < from_";
  let n = node t name in
  n.hangs <- (from_, until) :: n.hangs

let crashed t ~node:name =
  match Hashtbl.find_opt t.nodes name with
  | None -> false
  | Some n -> (
    match n.crashed_at with
    | Some at -> at <= Engine.now t.engine
    | None -> false)

let alive t ~node:name =
  match Hashtbl.find_opt t.nodes name with
  | None -> true
  | Some n ->
    let now = Engine.now t.engine in
    (match n.crashed_at with Some at -> at > now | None -> true)
    && not (List.exists (fun (f, u) -> f <= now && now < u) n.hangs)

let crash_time t ~node:name =
  match Hashtbl.find_opt t.nodes name with
  | None -> None
  | Some n -> (
    match n.crashed_at with
    | Some at when at <= Engine.now t.engine -> Some at
    | Some _ | None -> None)
