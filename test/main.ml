let () =
  Alcotest.run "opennf"
    [
      ("util", Test_util.suite);
      ("sim", Test_sim.suite);
      ("net", Test_net.suite);
      ("index-equiv", Test_index_equiv.suite);
      ("ordered", Test_ordered.suite);
      ("arena", Test_arena.suite);
      ("state", Test_state.suite);
      ("sb", Test_sb.suite);
      ("nfs", Test_nfs.suite);
      ("move", Test_move.suite);
      ("move-edge", Test_move_edge.suite);
      ("audit", Test_audit.suite);
      ("re-move", Test_re_move.suite);
      ("nat-move", Test_nat_move.suite);
      ("ids-move", Test_ids_move.suite);
      ("ops", Test_ops.suite);
      ("baseline", Test_baseline.suite);
      ("apps", Test_apps.suite);
      ("trace", Test_trace.suite);
      ("properties", Test_props.suite);
      ("sched", Test_sched.suite);
      ("shard", Test_shard.suite);
      ("faults", Test_faults.suite);
      ("backend", Test_backend.suite);
      ("obs", Test_obs.suite);
      ("monitor", Test_monitor.suite);
      ("bench-env", Test_bench_env.suite);
    ]
