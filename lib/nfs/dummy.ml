open Opennf_net
open Opennf_state

type t = {
  chunk_bytes : int;
  flows : unit Store.Perflow.t;
  mutable imported : int;
}

let create ?(chunk_bytes = 202) () =
  { chunk_bytes; flows = Store.Perflow.create (); imported = 0 }

(* Canned state: a fixed structural template (as real serialized state
   shares field layout and label text across chunks) plus per-flow bytes
   that do not compress. The mix approximates the ~38% stream
   compressibility the paper measured on PRADS-derived state. *)
let template =
  "prads.conn{src_ip;dst_ip;proto:tcp;first_seen;last_seen;pkts;bytes;\
   os:linux;link:ethernet;svc:http};"

let chunk_for t key =
  let n = t.chunk_bytes in
  let seed = Flow.hash key in
  let rng = Opennf_util.Rng.create ~seed in
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i
      (if i < String.length template then String.unsafe_get template i
       else Char.unsafe_chr (Opennf_util.Rng.int rng 256))
  done;
  Bytes.unsafe_to_string b

let seed_flows t keys = List.iter (fun k -> Store.Perflow.set t.flows k ()) keys

let impl t =
  {
    Opennf_sb.Nf_api.kind = "dummy";
    process_packet =
      (fun p -> Store.Perflow.set t.flows p.Packet.key ());
    list_perflow =
      (fun filter ->
        List.map (fun (k, _) -> Filter.of_key k)
          (Store.Perflow.matching t.flows filter));
    export_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> None
        | Some key ->
          if Store.Perflow.mem t.flows key then
            Some (Chunk.v ~kind:"dummy" (chunk_for t key))
          else None);
    import_perflow =
      (fun flowid _chunk ->
        t.imported <- t.imported + 1;
        match Filter.exact_key flowid with
        | None -> ()
        | Some key -> Store.Perflow.set t.flows key ());
    delete_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> ()
        | Some key -> Store.Perflow.remove t.flows key);
    list_multiflow = (fun _ -> []);
    export_multiflow = (fun _ -> None);
    import_multiflow = (fun _ _ -> ());
    delete_multiflow = (fun _ -> ());
    export_allflows = (fun () -> []);
    import_allflows = (fun _ -> ());
  }

let flow_count t = Store.Perflow.size t.flows
let imported_count t = t.imported
