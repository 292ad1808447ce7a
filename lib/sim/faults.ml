module Rng = Opennf_util.Rng

type t = {
  engine : Engine.t;
  rng : Rng.t;
  links : (string, link) Hashtbl.t;
  nodes : (string, node) Hashtbl.t;
  mutable dropped : int;
  mutable duplicated : int;
}

(* A link's profile, updated in place; all zero is the quiet link (no
   profile registered), which draws no randomness. *)
and link = {
  owner : t;
  mutable drop : float;
  mutable dup : float;
  mutable jitter : float;
}

and node = {
  clock : Engine.t;
  mutable crashed_at : float option;  (* Time the crash takes effect. *)
  mutable hangs : (float * float) list;  (* Unresponsive windows. *)
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

let link t name =
  match Hashtbl.find_opt t.links name with
  | Some l -> l
  | None ->
    let l = { owner = t; drop = 0.0; dup = 0.0; jitter = 0.0 } in
    Hashtbl.add t.links name l;
    l

let set_link t ~name ?(drop = 0.0) ?(dup = 0.0) ?(jitter = 0.0) () =
  let l = link t name in
  l.drop <- drop;
  l.dup <- dup;
  l.jitter <- jitter

let clear_link t ~name = set_link t ~name ()

let link_quiet l = l.drop = 0.0 && l.dup = 0.0 && l.jitter = 0.0

let link_plan l =
  let t = l.owner in
  let copies =
    if l.drop > 0.0 && Rng.float t.rng 1.0 < l.drop then begin
      t.dropped <- t.dropped + 1;
      0
    end
    else if l.dup > 0.0 && Rng.float t.rng 1.0 < l.dup then begin
      t.duplicated <- t.duplicated + 1;
      2
    end
    else 1
  in
  let jitter = if l.jitter > 0.0 then Rng.float t.rng l.jitter else 0.0 in
  (copies, jitter)

let plan t ~link:name = link_plan (link t name)
let dropped_count t = t.dropped
let duplicated_count t = t.duplicated

(* --- nodes --------------------------------------------------------------- *)

let node t name =
  match Hashtbl.find_opt t.nodes name with
  | Some n -> n
  | None ->
    let n = { clock = t.engine; crashed_at = None; hangs = [] } in
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

let node_alive n =
  match (n.crashed_at, n.hangs) with
  | None, [] -> true
  | crashed_at, hangs ->
    let now = Engine.now n.clock in
    (match crashed_at with Some at -> at > now | None -> true)
    && not (List.exists (fun (f, u) -> f <= now && now < u) hangs)

let alive t ~node:name = node_alive (node t name)
