let () =
  Alcotest.run "xheal"
    (Test_edge.suite @ Test_graph.suite @ Test_traversal.suite @ Test_generators.suite
   @ Test_cuts.suite @ Test_linalg.suite @ Test_spectral.suite @ Test_randwalk.suite
   @ Test_expander.suite @ Test_cost.suite @ Test_ownership.suite @ Test_cloud.suite
   @ Test_registry.suite @ Test_matching.suite @ Test_xheal.suite @ Test_xheal_prop.suite
   @ Test_baselines.suite @ Test_adversary.suite @ Test_metrics.suite @ Test_distributed.suite
   @ Test_experiments.suite @ Test_batch.suite @ Test_exhaustive.suite @ Test_misc.suite @ Test_routing.suite @ Test_pricing.suite @ Test_faults.suite @ Test_async.suite @ Test_coverage.suite
   @ Test_lint.suite @ Test_determinism.suite @ Test_obs.suite @ Test_monitor.suite
   @ Test_byzantine.suite @ Test_faulty_engine.suite @ Test_graph_diff.suite @ Test_slot_kernels.suite
   @ Test_detector.suite)
