type proto = Tcp | Udp | Icmp

let proto_to_string = function Tcp -> "tcp" | Udp -> "udp" | Icmp -> "icmp"

type key = {
  src_ip : Ipaddr.t;
  dst_ip : Ipaddr.t;
  proto : proto;
  src_port : int;
  dst_port : int;
}

let make ~src ~dst ?(proto = Tcp) ~sport ~dport () =
  { src_ip = src; dst_ip = dst; proto; src_port = sport; dst_port = dport }

let reverse k =
  {
    k with
    src_ip = k.dst_ip;
    dst_ip = k.src_ip;
    src_port = k.dst_port;
    dst_port = k.src_port;
  }

let compare a b =
  let c = Ipaddr.compare a.src_ip b.src_ip in
  if c <> 0 then c
  else
    let c = Ipaddr.compare a.dst_ip b.dst_ip in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.proto b.proto in
      if c <> 0 then c
      else
        let c = Int.compare a.src_port b.src_port in
        if c <> 0 then c else Int.compare a.dst_port b.dst_port

(* [compare a b = 0] without the ordering work; [proto] is a constant
   constructor, so [==] is its equality. *)
let equal a b =
  Ipaddr.equal a.src_ip b.src_ip
  && Ipaddr.equal a.dst_ip b.dst_ip
  && a.proto == b.proto
  && Int.equal a.src_port b.src_port
  && Int.equal a.dst_port b.dst_port

(* [compare k (reverse k) <= 0], decided on the swapped fields in place:
   the reversed record is built only when it is the answer. *)
let is_canonical k =
  let c = Ipaddr.compare k.src_ip k.dst_ip in
  c < 0 || (c = 0 && k.src_port <= k.dst_port)

let canonical k = if is_canonical k then k else reverse k

let hash k =
  Opennf_util.Hashing.combine5 (Ipaddr.hash k.src_ip) (Ipaddr.hash k.dst_ip)
    k.src_port k.dst_port
    (match k.proto with Tcp -> 0 | Udp -> 1 | Icmp -> 2)

let to_string k =
  Printf.sprintf "%s:%d>%s:%d/%s"
    (Ipaddr.to_string k.src_ip)
    k.src_port
    (Ipaddr.to_string k.dst_ip)
    k.dst_port
    (proto_to_string k.proto)

let pp ppf k = Format.pp_print_string ppf (to_string k)

module Ord = struct
  type t = key

  let compare = compare
end

module Hashed = struct
  type t = key

  let equal = equal
  let hash = hash
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
module Table = Hashtbl.Make (Hashed)
