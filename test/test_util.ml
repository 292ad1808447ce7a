(* Unit and property tests for the utility layer: RNG, hashing, LZ,
   statistics, binary I/O and the domain pool. *)

module Rng = Opennf_util.Rng
module Hashing = Opennf_util.Hashing
module Lz = Opennf_util.Lz
module Stats = Opennf_util.Stats
module Bytes_io = Opennf_util.Bytes_io
module Domain_pool = Opennf_util.Domain_pool

(* --- rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_range () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:5 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f close to 3.0" mean)
    true
    (abs_float (mean -. 3.0) < 0.15)

let test_rng_pareto_heavy_tail () =
  let rng = Rng.create ~seed:6 in
  let n = 20000 in
  let above = ref 0 in
  for _ = 1 to n do
    if Rng.pareto rng ~shape:1.1 ~scale:60.0 > 1500.0 then incr above
  done;
  (* P(X > 1500) = (60/1500)^1.1 ~ 2.9%: heavy-tailed but not absurd. *)
  Alcotest.(check bool) "tail mass plausible" true (!above > 200 && !above < 1500)

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:8 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* The stream is part of every seeded result: pin it bit for bit. *)
let test_rng_golden_streams () =
  List.iter
    (fun (r : Rng_golden.row) ->
      let draws f =
        let rng = Rng.create ~seed:r.seed in
        List.init 16 (fun _ -> f rng)
      in
      let name what = Printf.sprintf "seed %d %s" r.seed what in
      Alcotest.(check (list int64)) (name "bits64") r.bits (draws Rng.bits64);
      Alcotest.(check (list int))
        (name "int") r.ints
        (draws (fun g -> Rng.int g 1_000_003));
      Alcotest.(check (list int64))
        (name "float") r.floats
        (draws (fun g -> Int64.bits_of_float (Rng.float g 1.0)));
      Alcotest.(check (list int64))
        (name "split") r.splits
        (draws (fun g -> Rng.bits64 (Rng.split g))))
    Rng_golden.rows

(* --- hashing -------------------------------------------------------------- *)

let test_fnv_known_distinct () =
  Alcotest.(check bool) "distinct inputs, distinct hashes" true
    (Hashing.fnv1a64 "hello" <> Hashing.fnv1a64 "hellp");
  Alcotest.(check int64) "stable" (Hashing.fnv1a64 "x") (Hashing.fnv1a64 "x")

let test_fnv_sub_matches_whole () =
  let s = "abcdefgh" in
  Alcotest.(check int64) "substring hash"
    (Hashing.fnv1a64 "cde")
    (Hashing.fnv1a64_sub s ~pos:2 ~len:3)

let test_digest_streaming_invariance () =
  let d1 = Hashing.Digest_sig.create () in
  Hashing.Digest_sig.feed d1 "hello ";
  Hashing.Digest_sig.feed d1 "world";
  let d2 = Hashing.Digest_sig.create () in
  Hashing.Digest_sig.feed d2 "hello world";
  Alcotest.(check int64) "split-independent"
    (Hashing.Digest_sig.value d1)
    (Hashing.Digest_sig.value d2)

let test_digest_order_sensitive () =
  let d1 = Hashing.Digest_sig.create () in
  Hashing.Digest_sig.feed d1 "ab";
  let d2 = Hashing.Digest_sig.create () in
  Hashing.Digest_sig.feed d2 "ba";
  Alcotest.(check bool) "order matters" true
    (Hashing.Digest_sig.value d1 <> Hashing.Digest_sig.value d2)

let test_digest_export_restore () =
  let d = Hashing.Digest_sig.create () in
  Hashing.Digest_sig.feed d "partial";
  let resumed = Hashing.Digest_sig.restore (Hashing.Digest_sig.export d) in
  Hashing.Digest_sig.feed d " rest";
  Hashing.Digest_sig.feed resumed " rest";
  Alcotest.(check int64) "resumable"
    (Hashing.Digest_sig.value d)
    (Hashing.Digest_sig.value resumed)

(* --- lz -------------------------------------------------------------------- *)

let test_lz_roundtrip_cases () =
  List.iter
    (fun s ->
      Alcotest.(check string) "roundtrip" s (Lz.decompress (Lz.compress s)))
    [
      ""; "a"; "abc"; String.make 1000 'x';
      "abcabcabcabcabcabc"; "the quick brown fox jumps over the lazy dog";
      String.concat "" (List.init 50 (fun i -> Printf.sprintf "field%d=0;" i));
    ]

let test_lz_compresses_repetitive () =
  let s = String.concat "" (List.init 100 (fun _ -> "conn{state=est;os=linux};")) in
  Alcotest.(check bool) "smaller" true
    (String.length (Lz.compress s) < String.length s / 2)

let test_lz_overlapping_match () =
  (* "aaaa..." forces overlapping back-references. *)
  let s = String.make 500 'a' in
  Alcotest.(check string) "overlap ok" s (Lz.decompress (Lz.compress s))

let test_lz_rejects_garbage () =
  Alcotest.check_raises "bad token" (Invalid_argument "Lz.decompress: bad token")
    (fun () -> ignore (Lz.decompress "\x07zzz"))

let test_lz_stream_ratio_bounds () =
  let chunks = List.init 20 (fun i -> Printf.sprintf "template-text-%03d" i) in
  let r = Lz.stream_ratio chunks in
  Alcotest.(check bool) "in (0, 1]" true (r > 0.0 && r <= 1.0);
  Alcotest.(check bool) "cross-chunk redundancy exploited" true (r < 0.9)

let lz_roundtrip_prop =
  QCheck.Test.make ~name:"lz roundtrip (random strings)" ~count:300
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun s -> Lz.decompress (Lz.compress s) = s)

let lz_roundtrip_repetitive_prop =
  QCheck.Test.make ~name:"lz roundtrip (repetitive strings)" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 40)) (int_range 1 100))
    (fun (piece, n) ->
      let s = String.concat "" (List.init n (fun _ -> piece)) in
      Lz.decompress (Lz.compress s) = s)

(* --- stats ------------------------------------------------------------------ *)

let test_summary_basics () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.Summary.max s);
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944 (Stats.Summary.stddev s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stats.Summary.mean s)

let test_reservoir_percentiles () =
  let r = Stats.Reservoir.create () in
  for i = 1 to 100 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.Reservoir.percentile r 0.5);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.Reservoir.percentile r 0.99);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Stats.Reservoir.max r)

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c;
  Stats.Counter.incr ~by:5 c;
  Alcotest.(check int) "counter" 6 (Stats.Counter.get c)

(* --- bytes_io ----------------------------------------------------------------- *)

let test_bytes_io_roundtrip () =
  let w = Bytes_io.Writer.create () in
  Bytes_io.Writer.u8 w 200;
  Bytes_io.Writer.u16 w 40000;
  Bytes_io.Writer.u32 w 3_000_000_000;
  Bytes_io.Writer.i64 w (-42L);
  Bytes_io.Writer.int w (-123456789);
  Bytes_io.Writer.f64 w 3.14159;
  Bytes_io.Writer.bool w true;
  Bytes_io.Writer.string w "hello";
  Bytes_io.Writer.list w (Bytes_io.Writer.int w) [ 1; 2; 3 ];
  let r = Bytes_io.Reader.of_string (Bytes_io.Writer.contents w) in
  Alcotest.(check int) "u8" 200 (Bytes_io.Reader.u8 r);
  Alcotest.(check int) "u16" 40000 (Bytes_io.Reader.u16 r);
  Alcotest.(check int) "u32" 3_000_000_000 (Bytes_io.Reader.u32 r);
  Alcotest.(check int64) "i64" (-42L) (Bytes_io.Reader.i64 r);
  Alcotest.(check int) "int" (-123456789) (Bytes_io.Reader.int r);
  Alcotest.(check (float 1e-12)) "f64" 3.14159 (Bytes_io.Reader.f64 r);
  Alcotest.(check bool) "bool" true (Bytes_io.Reader.bool r);
  Alcotest.(check string) "string" "hello" (Bytes_io.Reader.string r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ]
    (Bytes_io.Reader.list r (fun () -> Bytes_io.Reader.int r));
  Alcotest.(check bool) "at end" true (Bytes_io.Reader.at_end r)

let test_bytes_io_truncated () =
  let r = Bytes_io.Reader.of_string "\x01" in
  ignore (Bytes_io.Reader.u8 r);
  Alcotest.check_raises "past end" (Bytes_io.Decode_error "u8: past end")
    (fun () -> ignore (Bytes_io.Reader.u8 r))

let test_bytes_io_bad_string_length () =
  let w = Bytes_io.Writer.create () in
  Bytes_io.Writer.u32 w 1000;
  let r = Bytes_io.Reader.of_string (Bytes_io.Writer.contents w) in
  Alcotest.check_raises "string past end"
    (Bytes_io.Decode_error "string: past end") (fun () ->
      ignore (Bytes_io.Reader.string r))

let bytes_io_string_prop =
  QCheck.Test.make ~name:"bytes_io string roundtrip" ~count:300
    QCheck.(list (string_of_size Gen.(0 -- 100)))
    (fun strings ->
      let w = Bytes_io.Writer.create () in
      Bytes_io.Writer.list w (Bytes_io.Writer.string w) strings;
      let r = Bytes_io.Reader.of_string (Bytes_io.Writer.contents w) in
      Bytes_io.Reader.list r (fun () -> Bytes_io.Reader.string r) = strings)

let bytes_io_int_prop =
  QCheck.Test.make ~name:"bytes_io int roundtrip" ~count:500 QCheck.int
    (fun i ->
      let w = Bytes_io.Writer.create () in
      Bytes_io.Writer.int w i;
      Bytes_io.Reader.int (Bytes_io.Reader.of_string (Bytes_io.Writer.contents w))
      = i)

(* --- domain pool ---------------------------------------------------------- *)

exception Boom of int

let test_pool_run () =
  let tasks = Array.init 8 (fun i () -> i * i) in
  Alcotest.(check (array int)) "results in task order"
    (Array.init 8 (fun i -> i * i))
    (Domain_pool.run ~domains:2 tasks);
  Alcotest.check_raises "task exception re-raised" (Boom 5) (fun () ->
      ignore
        (Domain_pool.run ~domains:2
           (Array.init 8 (fun i () -> if i = 5 then raise (Boom i) else i))))

let suite =
  [
    Alcotest.test_case "rng: deterministic per seed" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng: int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng: float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng: exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng: pareto tail" `Quick test_rng_pareto_heavy_tail;
    Alcotest.test_case "rng: shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng: golden streams" `Quick test_rng_golden_streams;
    Alcotest.test_case "hash: fnv distinct & stable" `Quick test_fnv_known_distinct;
    Alcotest.test_case "hash: fnv substring" `Quick test_fnv_sub_matches_whole;
    Alcotest.test_case "digest: streaming invariance" `Quick
      test_digest_streaming_invariance;
    Alcotest.test_case "digest: order sensitive" `Quick test_digest_order_sensitive;
    Alcotest.test_case "digest: export/restore" `Quick test_digest_export_restore;
    Alcotest.test_case "lz: roundtrip cases" `Quick test_lz_roundtrip_cases;
    Alcotest.test_case "lz: compresses repetition" `Quick
      test_lz_compresses_repetitive;
    Alcotest.test_case "lz: overlapping matches" `Quick test_lz_overlapping_match;
    Alcotest.test_case "lz: rejects garbage" `Quick test_lz_rejects_garbage;
    Alcotest.test_case "lz: stream ratio bounds" `Quick test_lz_stream_ratio_bounds;
    QCheck_alcotest.to_alcotest lz_roundtrip_prop;
    QCheck_alcotest.to_alcotest lz_roundtrip_repetitive_prop;
    Alcotest.test_case "stats: summary" `Quick test_summary_basics;
    Alcotest.test_case "stats: empty summary" `Quick test_summary_empty;
    Alcotest.test_case "stats: percentiles" `Quick test_reservoir_percentiles;
    Alcotest.test_case "stats: counter" `Quick test_counter;
    Alcotest.test_case "bytes_io: roundtrip" `Quick test_bytes_io_roundtrip;
    Alcotest.test_case "bytes_io: truncated" `Quick test_bytes_io_truncated;
    Alcotest.test_case "bytes_io: bad length" `Quick test_bytes_io_bad_string_length;
    QCheck_alcotest.to_alcotest bytes_io_string_prop;
    QCheck_alcotest.to_alcotest bytes_io_int_prop;
    Alcotest.test_case "domain_pool: run on transient workers" `Quick
      test_pool_run;
  ]
