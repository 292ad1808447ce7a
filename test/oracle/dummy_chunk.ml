(* The dummy NF's canned chunk as the seed generated it: the structural
   template, then one [Rng.int rng 256] draw per remaining byte from a
   generator seeded with the flow key's hash. [Opennf_nfs.Dummy] must
   export exactly these bytes. *)

open Opennf_net

let template =
  "prads.conn{src_ip;dst_ip;proto:tcp;first_seen;last_seen;pkts;bytes;\
   os:linux;link:ethernet;svc:http};"

let chunk ~chunk_bytes key =
  let rng = Opennf_util.Rng.create ~seed:(Flow.hash key) in
  String.init chunk_bytes (fun i ->
      if i < String.length template then template.[i]
      else Char.chr (Opennf_util.Rng.int rng 256))
