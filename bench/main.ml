(* Benchmark harness entry point.

   Runs every experiment from the paper's evaluation (§8) — each table
   and figure has a registered bench module — or a selection given on
   the command line:

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig10 sec83
     dune exec bench/main.exe -- --list  *)

(* Force linkage of the experiment modules (each registers itself). *)
let experiments_linked =
  [
    Bench_fig10.run; Bench_fig11.run; Bench_copyshare.run; Bench_table1.run;
    Bench_fig12.run; Bench_table2.run; Bench_fig13.run; Bench_sec83.run;
    Bench_sec84.run; Bench_ablation.run; Bench_failover.run; Bench_datapath.run;
    Bench_faults.run; Bench_sched.run; Bench_scale.run; Bench_backend.run;
    Bench_moncheck.run;
  ]

let () =
  ignore experiments_linked;
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let all = Harness.all () in
  if List.mem "--list" args then
    List.iter
      (fun e -> Printf.printf "%-10s %s\n" e.Harness.id e.Harness.descr)
      all
  else begin
    let selected =
      match args with
      | [] -> all
      | ids ->
        List.iter
          (fun id ->
            if not (List.exists (fun e -> e.Harness.id = id) all) then begin
              Printf.eprintf "unknown experiment %s (try --list)\n" id;
              exit 2
            end)
          ids;
        List.filter (fun e -> List.mem e.Harness.id ids) all
    in
    List.iter (fun e -> e.Harness.run ()) selected;
    print_newline ()
  end
