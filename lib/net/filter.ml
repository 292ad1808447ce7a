type t = {
  src : Ipaddr.Prefix.t option;
  dst : Ipaddr.Prefix.t option;
  proto : Flow.proto option;
  src_port : int option;
  dst_port : int option;
  tcp_flag : Packet.tcp_flag option;
  app : string option;
}

let any =
  {
    src = None;
    dst = None;
    proto = None;
    src_port = None;
    dst_port = None;
    tcp_flag = None;
    app = None;
  }

let make ?src ?dst ?proto ?src_port ?dst_port ?tcp_flag () =
  { src; dst; proto; src_port; dst_port; tcp_flag; app = None }

let of_key (k : Flow.key) =
  {
    src = Some (Ipaddr.Prefix.host k.src_ip);
    dst = Some (Ipaddr.Prefix.host k.dst_ip);
    proto = Some k.proto;
    src_port = Some k.src_port;
    dst_port = Some k.dst_port;
    tcp_flag = None;
    app = None;
  }

let of_src_prefix p = { any with src = Some p }
let of_src_host ip = { any with src = Some (Ipaddr.Prefix.host ip) }
let of_dst_host ip = { any with dst = Some (Ipaddr.Prefix.host ip) }
let of_app app = { any with app = Some app }

let mirror t =
  { t with src = t.dst; dst = t.src; src_port = t.dst_port; dst_port = t.src_port }

(* Field-by-field, one match per field: no comparison closure is built
   or called. [proto] and [tcp_flag] are constant constructors, so [==]
   is their equality. *)
let prefix_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Ipaddr.Prefix.equal x y
  | None, Some _ | Some _, None -> false

let imm_opt_equal (a : 'a option) (b : 'a option) =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x == y
  | None, Some _ | Some _, None -> false

let equal a b =
  prefix_opt_equal a.src b.src
  && prefix_opt_equal a.dst b.dst
  && imm_opt_equal a.proto b.proto
  && imm_opt_equal a.src_port b.src_port
  && imm_opt_equal a.dst_port b.dst_port
  && imm_opt_equal a.tcp_flag b.tcp_flag
  &&
  match (a.app, b.app) with
  | None, None -> true
  | Some x, Some y -> String.equal x y
  | None, Some _ | Some _, None -> false

let compare_opt cmp a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let proto_rank = function Flow.Tcp -> 0 | Flow.Udp -> 1 | Flow.Icmp -> 2

let flag_rank = function
  | Packet.Syn -> 0
  | Packet.Ack -> 1
  | Packet.Fin -> 2
  | Packet.Rst -> 3
  | Packet.Psh -> 4

let compare a b =
  let ( <?> ) c next = if c <> 0 then c else next () in
  compare_opt Ipaddr.Prefix.compare a.src b.src <?> fun () ->
  compare_opt Ipaddr.Prefix.compare a.dst b.dst <?> fun () ->
  compare_opt (fun x y -> Int.compare (proto_rank x) (proto_rank y)) a.proto
    b.proto
  <?> fun () ->
  compare_opt Int.compare a.src_port b.src_port <?> fun () ->
  compare_opt Int.compare a.dst_port b.dst_port <?> fun () ->
  compare_opt (fun x y -> Int.compare (flag_rank x) (flag_rank y)) a.tcp_flag
    b.tcp_flag
  <?> fun () -> compare_opt String.compare a.app b.app

let hash t =
  let prefix = function
    | None -> -1
    | Some p ->
      (Ipaddr.to_int (Ipaddr.Prefix.network p) lsl 6) lor Ipaddr.Prefix.bits p
  in
  let rank f = function None -> -1 | Some x -> f x in
  let int_opt = function None -> -1 | Some x -> x in
  Opennf_util.Hashing.combine7 (prefix t.src) (prefix t.dst)
    (rank proto_rank t.proto) (int_opt t.src_port) (int_opt t.dst_port)
    (rank flag_rank t.tcp_flag)
    (match t.app with None -> 0L | Some a -> Opennf_util.Hashing.fnv1a64 a)

let is_symmetric t = equal (mirror t) t

let field_matches check constraint_ value =
  match constraint_ with None -> true | Some c -> check c value

let matches_fields t src dst proto sport dport =
  field_matches (fun p v -> Ipaddr.Prefix.mem v p) t.src src
  && field_matches (fun p v -> Ipaddr.Prefix.mem v p) t.dst dst
  && field_matches ( = ) t.proto proto
  && field_matches Int.equal t.src_port sport
  && field_matches Int.equal t.dst_port dport

let matches_key t (k : Flow.key) =
  matches_fields t k.src_ip k.dst_ip k.proto k.src_port k.dst_port

let matches_packet t (p : Packet.t) =
  matches_key t p.key
  && field_matches (fun f pkt -> Packet.has_flag pkt f) t.tcp_flag p

let matches_conn t ~src ~dst ~proto ~sport ~dport =
  matches_fields t src dst proto sport dport
  || matches_fields t dst src proto dport sport

let matches_flow t (k : Flow.key) =
  matches_conn t ~src:k.src_ip ~dst:k.dst_ip ~proto:k.proto ~sport:k.src_port
    ~dport:k.dst_port

let matches_host t ip =
  let mem = function None -> false | Some p -> Ipaddr.Prefix.mem ip p in
  match (t.src, t.dst) with
  | None, None -> true
  | _ -> mem t.src || mem t.dst

(* A flowid field is accepted if the filter has no constraint on it or the
   constraint is compatible (prefix inclusion for addresses, equality
   otherwise). Fields absent from the flowid are ignored (§4.2). *)
let accepts_flowid_directed filter flowid =
  let prefix_ok c v =
    match (c, v) with
    | None, _ | _, None -> true
    | Some c, Some v -> Ipaddr.Prefix.subset v c
  in
  let eq_ok c v =
    match (c, v) with
    | None, _ | _, None -> true
    | Some c, Some v -> c = v
  in
  prefix_ok filter.src flowid.src
  && prefix_ok filter.dst flowid.dst
  && eq_ok filter.proto flowid.proto
  && eq_ok filter.src_port flowid.src_port
  && eq_ok filter.dst_port flowid.dst_port
  && eq_ok filter.app flowid.app

let accepts_flowid filter flowid =
  accepts_flowid_directed filter flowid
  || accepts_flowid_directed filter (mirror flowid)

(* Could some flow match both filters? Address prefixes intersect iff
   one contains the other; equality fields intersect unless both are
   pinned to different values. [tcp_flag] and [app] are ignored — they
   don't narrow the 5-tuple space a state footprint covers, so ignoring
   them errs on the safe (overlapping) side. *)
let overlap_prefix a b =
  match (a, b) with
  | None, _ | _, None -> true
  | Some p, Some q -> Ipaddr.Prefix.subset p q || Ipaddr.Prefix.subset q p

let overlap_eq a b =
  match (a, b) with None, _ | _, None -> true | Some x, Some y -> x = y

let overlaps_directed a b =
  overlap_prefix a.src b.src
  && overlap_prefix a.dst b.dst
  && overlap_eq a.proto b.proto
  && overlap_eq a.src_port b.src_port
  && overlap_eq a.dst_port b.dst_port

(* Connection-level, like [matches_flow]: a flow matches a filter in
   either direction, so two filters overlap if their directed forms
   intersect directly or mirrored. *)
let overlaps a b = overlaps_directed a b || overlaps_directed a (mirror b)

let exact_prefix = function
  | Some p when Ipaddr.Prefix.bits p = 32 -> Some (Ipaddr.Prefix.network p)
  | Some _ | None -> None

let exact_key t =
  match
    ( exact_prefix t.src,
      exact_prefix t.dst,
      t.proto,
      t.src_port,
      t.dst_port )
  with
  | Some src, Some dst, Some proto, Some sport, Some dport ->
    Some (Flow.make ~src ~dst ~proto ~sport ~dport ())
  | _ -> None

let exact_src_host t = exact_prefix t.src

let to_string t =
  let parts = ref [] in
  let add name v = parts := Printf.sprintf "%s=%s" name v :: !parts in
  Option.iter (fun p -> add "src" (Ipaddr.Prefix.to_string p)) t.src;
  Option.iter (fun p -> add "dst" (Ipaddr.Prefix.to_string p)) t.dst;
  Option.iter (fun p -> add "proto" (Flow.proto_to_string p)) t.proto;
  Option.iter (fun p -> add "sport" (string_of_int p)) t.src_port;
  Option.iter (fun p -> add "dport" (string_of_int p)) t.dst_port;
  Option.iter
    (fun f ->
      add "flag" (Format.asprintf "%a" Packet.pp_flags [ f ]))
    t.tcp_flag;
  Option.iter (fun a -> add "app" a) t.app;
  match !parts with
  | [] -> "{*}"
  | ps -> "{" ^ String.concat "," (List.rev ps) ^ "}"

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Table = Hashtbl.Make (Hashed)
