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

let equal a b = compare a b = 0

(* [compare k (reverse k) <= 0], decided on the swapped fields in place:
   the reversed record is built only when it is the answer. *)
let canonical k =
  let c = Ipaddr.compare k.src_ip k.dst_ip in
  if c < 0 || (c = 0 && k.src_port <= k.dst_port) then k else reverse k

let hash k =
  let open Opennf_util.Hashing in
  let h =
    combine
      (Int64.of_int (Ipaddr.hash k.src_ip))
      (Int64.of_int (Ipaddr.hash k.dst_ip))
  in
  let h = combine h (Int64.of_int k.src_port) in
  let h = combine h (Int64.of_int k.dst_port) in
  let h =
    combine h (Int64.of_int (match k.proto with Tcp -> 0 | Udp -> 1 | Icmp -> 2))
  in
  Int64.to_int h land max_int

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
