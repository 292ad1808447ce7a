(* Tests for the state layer: scopes, chunks, stores. *)

open Opennf_net
open Opennf_state

let ip = Ipaddr.v
let key = Flow.make ~src:(ip 10 0 0 1) ~dst:(ip 172 16 0 1) ~sport:1234 ~dport:80 ()

let test_scope_strings () =
  Alcotest.(check string) "per" "per-flow" (Scope.to_string Scope.Per);
  Alcotest.(check string) "multi" "multi-flow" (Scope.to_string Scope.Multi);
  Alcotest.(check string) "all" "all-flows" (Scope.to_string Scope.All);
  Alcotest.(check int) "three scopes" 3 (List.length Scope.all)

let test_chunk_encode_read () =
  let chunk =
    Chunk.encode ~kind:"test" (fun w ->
        Opennf_util.Bytes_io.Writer.int w 77;
        Opennf_util.Bytes_io.Writer.string w "payload")
  in
  Alcotest.(check string) "kind" "test" chunk.Chunk.kind;
  let r = Chunk.reader chunk in
  Alcotest.(check int) "int field" 77 (Opennf_util.Bytes_io.Reader.int r);
  Alcotest.(check string) "string field" "payload"
    (Opennf_util.Bytes_io.Reader.string r);
  Alcotest.(check bool) "size counts kind" true (Chunk.size chunk > 15)

let test_chunk_compress_roundtrip () =
  let chunk = Chunk.v ~kind:"k" (String.concat "" (List.init 30 (fun _ -> "abcdef"))) in
  let c = Chunk.compress chunk in
  Alcotest.(check string) "kind tagged" "k+lz" c.Chunk.kind;
  let d = Chunk.decompress c in
  Alcotest.(check string) "kind restored" "k" d.Chunk.kind;
  Alcotest.(check string) "data restored" chunk.Chunk.data d.Chunk.data;
  (* Decompress is idempotent on plain chunks. *)
  Alcotest.(check string) "plain untouched" chunk.Chunk.data
    (Chunk.decompress chunk).Chunk.data

let test_perflow_store_canonicalizes () =
  let s = Store.Perflow.create () in
  Store.Perflow.set s key "v";
  Alcotest.(check (option string)) "forward" (Some "v") (Store.Perflow.find s key);
  Alcotest.(check (option string)) "reverse" (Some "v")
    (Store.Perflow.find s (Flow.reverse key));
  Store.Perflow.remove s (Flow.reverse key);
  Alcotest.(check int) "removed via reverse" 0 (Store.Perflow.size s)

let test_perflow_store_matching () =
  let s = Store.Perflow.create () in
  let k2 = Flow.make ~src:(ip 10 0 0 2) ~dst:(ip 172 16 0 1) ~sport:5 ~dport:80 () in
  Store.Perflow.set s key 1;
  Store.Perflow.set s k2 2;
  let hits = Store.Perflow.matching s (Filter.of_src_host (ip 10 0 0 1)) in
  Alcotest.(check int) "one match" 1 (List.length hits);
  let all = Store.Perflow.matching s Filter.any in
  Alcotest.(check int) "wildcard" 2 (List.length all)

let test_perflow_store_matching_deterministic () =
  let s = Store.Perflow.create () in
  for i = 1 to 20 do
    Store.Perflow.set s
      (Flow.make ~src:(Ipaddr.of_int i) ~dst:(ip 172 16 0 1) ~sport:i ~dport:80 ())
      i
  done;
  let keys1 = List.map fst (Store.Perflow.matching s Filter.any) in
  let keys2 = List.map fst (Store.Perflow.matching s Filter.any) in
  Alcotest.(check bool) "stable order" true (keys1 = keys2);
  Alcotest.(check bool) "sorted" true
    (keys1 = List.sort Flow.compare keys1)

let test_per_host_store () =
  let s = Store.Per_host.create () in
  Store.Per_host.update s (ip 10 0 0 1) ~default:(fun () -> 0) ~f:(fun v -> v + 1);
  Store.Per_host.update s (ip 10 0 0 1) ~default:(fun () -> 0) ~f:(fun v -> v + 1);
  Alcotest.(check (option int)) "updated" (Some 2)
    (Store.Per_host.find s (ip 10 0 0 1));
  Store.Per_host.set s (ip 10 0 0 2) 7;
  let hits =
    Store.Per_host.matching s
      (Filter.of_src_prefix (Ipaddr.Prefix.of_string "10.0.0.0/31"))
  in
  Alcotest.(check int) "prefix selects one" 1 (List.length hits);
  let made = ref 0 in
  let make ip = incr made; Ipaddr.to_int ip in
  Alcotest.(check int) "find_or_add: a present host keeps its value" 7
    (Store.Per_host.find_or_add s (ip 10 0 0 2) make);
  Alcotest.(check int) "find_or_add: an absent host gets make's value"
    (Ipaddr.to_int (ip 10 0 0 3))
    (Store.Per_host.find_or_add s (ip 10 0 0 3) make);
  Alcotest.(check int) "find_or_add: and keeps it"
    (Ipaddr.to_int (ip 10 0 0 3))
    (Store.Per_host.find_or_add s (ip 10 0 0 3) make);
  Alcotest.(check (pair int int)) "make ran once; the size grew by one" (1, 3)
    (!made, Store.Per_host.size s)

let test_keyed_store () =
  let s =
    Store.Keyed.create
      ~relevant:(fun (f : Filter.t) _k v ->
        match f.Filter.app with Some a -> a = v | None -> true)
      ()
  in
  Store.Keyed.set s 1 "alpha";
  Store.Keyed.set s 2 "beta";
  Alcotest.(check int) "size" 2 (Store.Keyed.size s);
  Alcotest.(check int) "app select" 1
    (List.length (Store.Keyed.matching s (Filter.of_app "beta")));
  Alcotest.(check int) "wildcard" 2
    (List.length (Store.Keyed.matching s Filter.any));
  Store.Keyed.remove s 1;
  Alcotest.(check (option string)) "removed" None (Store.Keyed.find s 1)

let suite =
  [
    Alcotest.test_case "scope: names" `Quick test_scope_strings;
    Alcotest.test_case "chunk: encode/read" `Quick test_chunk_encode_read;
    Alcotest.test_case "chunk: compress roundtrip" `Quick
      test_chunk_compress_roundtrip;
    Alcotest.test_case "perflow store: canonical keys" `Quick
      test_perflow_store_canonicalizes;
    Alcotest.test_case "perflow store: filter matching" `Quick
      test_perflow_store_matching;
    Alcotest.test_case "perflow store: deterministic order" `Quick
      test_perflow_store_matching_deterministic;
    Alcotest.test_case "per-host store" `Quick test_per_host_store;
    Alcotest.test_case "keyed store" `Quick test_keyed_store;
  ]
