module Hashing = Opennf_util.Hashing
module Bytes_io = Opennf_util.Bytes_io
open Opennf_net
open Opennf_state

let ref_prefix = "REF:"

let fingerprint payload = Hashing.fnv1a64 payload

let is_ref payload =
  String.length payload > String.length ref_prefix
  && String.sub payload 0 (String.length ref_prefix) = ref_prefix

let ref_payload fp = Printf.sprintf "%s%Lx" ref_prefix fp

let fp_of_ref payload =
  let body =
    String.sub payload (String.length ref_prefix)
      (String.length payload - String.length ref_prefix)
  in
  Int64.of_string ("0x" ^ body)

(* The fingerprint store is all-flows state for both NFs: one chunk
   containing the whole table. *)
type store = (int64, string) Hashtbl.t

let store_chunk ~kind (s : store) =
  Chunk.encode ~kind (fun w ->
      let open Bytes_io.Writer in
      let entries = Hashtbl.fold (fun fp payload acc -> (fp, payload) :: acc) s [] in
      let entries = List.sort compare entries in
      list w
        (fun (fp, payload) ->
          i64 w fp;
          string w payload)
        entries)

let merge_store_chunk (s : store) chunk =
  let r = Chunk.reader chunk in
  let open Bytes_io.Reader in
  let entries =
    list r (fun () ->
        let fp = i64 r in
        let payload = string r in
        (fp, payload))
  in
  List.iter (fun (fp, payload) -> Hashtbl.replace s fp payload) entries

let no_perflow =
  (fun (_ : Filter.t) -> ([] : Filter.t list))

module Encoder = struct
  type t = { store : store }

  let create () = { store = Hashtbl.create 256 }

  let encode_payload t payload =
    if String.length payload = 0 then payload
    else begin
      let fp = fingerprint payload in
      if Hashtbl.mem t.store fp then ref_payload fp
      else begin
        Hashtbl.replace t.store fp payload;
        payload
      end
    end

  let process_packet t (p : Packet.t) = ignore (encode_payload t p.payload)

  let impl t =
    {
      Opennf_sb.Nf_api.kind = "re-encoder";
      process_packet = process_packet t;
      list_perflow = no_perflow;
      export_perflow = (fun _ -> None);
      import_perflow = (fun _ _ -> ());
      delete_perflow = (fun _ -> ());
      list_multiflow = no_perflow;
      export_multiflow = (fun _ -> None);
      import_multiflow = (fun _ _ -> ());
      delete_multiflow = (fun _ -> ());
      export_allflows = (fun () -> [ store_chunk ~kind:"re.store" t.store ]);
      import_allflows = (fun chunks -> List.iter (merge_store_chunk t.store) chunks);
    }

  let store_size t = Hashtbl.length t.store
end

module Decoder = struct
  type t = { store : store; mutable decoded : int; mutable desync : int }

  let create () = { store = Hashtbl.create 256; decoded = 0; desync = 0 }

  let process_packet t (p : Packet.t) =
    let payload = p.payload in
    if String.length payload > 0 then
      if is_ref payload then begin
        match Hashtbl.find_opt t.store (fp_of_ref payload) with
        | Some _ -> t.decoded <- t.decoded + 1
        | None ->
          (* Reference to content we never saw: the encoded packet
             overtook its data packet. Silent drop; stores diverge. *)
          t.desync <- t.desync + 1
      end
      else Hashtbl.replace t.store (fingerprint payload) payload

  let impl t =
    {
      Opennf_sb.Nf_api.kind = "re-decoder";
      process_packet = process_packet t;
      list_perflow = no_perflow;
      export_perflow = (fun _ -> None);
      import_perflow = (fun _ _ -> ());
      delete_perflow = (fun _ -> ());
      list_multiflow = no_perflow;
      export_multiflow = (fun _ -> None);
      import_multiflow = (fun _ _ -> ());
      delete_multiflow = (fun _ -> ());
      export_allflows = (fun () -> [ store_chunk ~kind:"re.store" t.store ]);
      import_allflows = (fun chunks -> List.iter (merge_store_chunk t.store) chunks);
    }

  let store_size t = Hashtbl.length t.store
  let decoded_count t = t.decoded
  let desync_count t = t.desync
end
