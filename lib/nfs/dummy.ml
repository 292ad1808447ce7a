open Opennf_net
open Opennf_state
module Pfa = Store.Perflow_arena

(* The flows live in an arena store with no payload: a row is the
   canonical key and nothing else, so presence is all the dummy keeps
   and its state costs the GC nothing to mark. *)
type t = { chunk_bytes : int; flows : Pfa.t; mutable imported : int }

let create ?(chunk_bytes = 202) () =
  { chunk_bytes; flows = Pfa.create ~payload:0 (); imported = 0 }

(* Canned state: a fixed structural template (as real serialized state
   shares field layout and label text across chunks) plus per-flow bytes
   that do not compress. The mix approximates the ~38% stream
   compressibility the paper measured on PRADS-derived state. *)
let template =
  "prads.conn{src_ip;dst_ip;proto:tcp;first_seen;last_seen;pkts;bytes;\
   os:linux;link:ethernet;svc:http};"

(* The bytes after the template are the stream an [Opennf_util.Rng]
   seeded with the key's hash draws with [int _ 256], one draw a byte:
   the splitmix64 step and finalizer, the output shifted right by two,
   its low 8 bits. Written out over a local state, it is one loop with
   no generator and no call per byte. *)
let chunk_for t key =
  let n = t.chunk_bytes in
  let b = Bytes.create n in
  let m = min n (String.length template) in
  Bytes.blit_string template 0 b 0 m;
  let z = ref (Int64.of_int (Flow.hash key)) in
  for i = m to n - 1 do
    z := Int64.add !z 0x9E3779B97F4A7C15L;
    let x = !z in
    let x = Int64.logxor x (Int64.shift_right_logical x 30) in
    let x = Int64.mul x 0xBF58476D1CE4E5B9L in
    let x = Int64.logxor x (Int64.shift_right_logical x 27) in
    let x = Int64.mul x 0x94D049BB133111EBL in
    let x = Int64.logxor x (Int64.shift_right_logical x 31) in
    let byte = Int64.to_int (Int64.shift_right_logical x 2) land 0xFF in
    Bytes.unsafe_set b i (Char.unsafe_chr byte)
  done;
  Bytes.unsafe_to_string b

let add t k = ignore (Pfa.insert t.flows k : Opennf_util.Arena.handle)
let seed_flows t keys = List.iter (add t) keys

let impl t =
  {
    Opennf_sb.Nf_api.kind = "dummy";
    process_packet = (fun p -> add t p.Packet.key);
    list_perflow =
      (fun filter ->
        List.map (fun (k, _) -> Filter.of_key k) (Pfa.matching t.flows filter));
    export_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> None
        | Some key ->
          if Pfa.find t.flows key <> Opennf_util.Arena.null then
            Some (Chunk.v ~kind:"dummy" (chunk_for t key))
          else None);
    import_perflow =
      (fun flowid _chunk ->
        t.imported <- t.imported + 1;
        match Filter.exact_key flowid with
        | None -> ()
        | Some key -> add t key);
    delete_perflow =
      (fun flowid ->
        match Filter.exact_key flowid with
        | None -> ()
        | Some key -> ignore (Pfa.remove t.flows key : bool));
    list_multiflow = (fun _ -> []);
    export_multiflow = (fun _ -> None);
    import_multiflow = (fun _ _ -> ());
    delete_multiflow = (fun _ -> ());
    export_allflows = (fun () -> []);
    import_allflows = (fun _ -> ());
  }

let flow_count t = Pfa.size t.flows
let imported_count t = t.imported
