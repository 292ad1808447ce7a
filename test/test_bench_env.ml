(* The bench harness's environment knobs: OPENNF_SHARDS pins the shard
   sweep and OPENNF_BENCH_REPEATS the min-of-k repeat count. Zero,
   negative and non-numeric values must fail with a message naming the
   variable, not run a degenerate sweep or raise a bare [Failure
   "int_of_string"]. A blank value counts as unset. *)

(* Run [f] with [var] set to [value], then blank it again. *)
let with_env var value f =
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var "") f

let check_rejects var run =
  List.iter
    (fun bad ->
      with_env var bad (fun () ->
          match run () with
          | _ -> Alcotest.failf "%s=%S accepted" var bad
          | exception Failure msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s=%S: message names the variable (%s)" var bad
                 msg)
              true
              (String.starts_with ~prefix:(var ^ " must be a positive integer")
                 msg)))
    [ "0"; "-2"; "two"; "1.5" ]

let test_shard_counts () =
  check_rejects "OPENNF_SHARDS" (fun () -> ignore (Harness.shard_counts ()));
  with_env "OPENNF_SHARDS" " 2 " (fun () ->
      Alcotest.(check (list int)) "pinned" [ 2 ] (Harness.shard_counts ()));
  with_env "OPENNF_SHARDS" "" (fun () ->
      Alcotest.(check (list int)) "blank is unset" [ 1; 2; 4 ]
        (Harness.shard_counts ()))

let test_bench_repeats () =
  let repeats () = (fst (Harness.time_min_of ~k:3 Fun.id)).Harness.t_repeats in
  check_rejects "OPENNF_BENCH_REPEATS" (fun () -> ignore (repeats ()));
  with_env "OPENNF_BENCH_REPEATS" "2" (fun () ->
      Alcotest.(check int) "pinned" 2 (repeats ()));
  with_env "OPENNF_BENCH_REPEATS" "" (fun () ->
      Alcotest.(check int) "blank is unset" 3 (repeats ()))

let suite =
  [
    Alcotest.test_case "OPENNF_SHARDS: bad values rejected" `Quick
      test_shard_counts;
    Alcotest.test_case "OPENNF_BENCH_REPEATS: bad values rejected" `Quick
      test_bench_repeats;
  ]
