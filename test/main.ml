(* Test runner: one alcotest suite per module family. *)

let () =
  Alcotest.run "ssj"
    [
      ("prob.pmf", Test_pmf.suite);
      ("prob.dist", Test_dist.suite);
      ("prob.convolve", Test_convolve.suite);
      ("prob.stats+rng", Test_stats.suite);
      ("prob.gof", Test_gof.suite);
      ("prob.itab", Test_itab.suite);
      ("prob.ftab", Test_ftab.suite);
      ("flow", Test_flow.suite);
      ("model", Test_models.suite);
      ("stream", Test_stream.suite);
      ("stream.io", Test_trace_io.suite);
      ("core.ecb", Test_ecb.suite);
      ("core.dominance", Test_dominance.suite);
      ("core.lfun", Test_lfun.suite);
      ("core.hvalue", Test_hvalue.suite);
      ("core.interp", Test_interp.suite);
      ("core.precompute", Test_precompute.suite);
      ("core.policies", Test_policies.suite);
      ("core.heeb", Test_heeb.suite);
      ("core.flow_expect", Test_flow_expect.suite);
      ("core.opt_offline", Test_opt_offline.suite);
      ("core.expectimax", Test_expectimax.suite);
      ("core.sliding", Test_sliding.suite);
      ("core.band", Test_band.suite);
      ("core.case_studies", Test_case_studies.suite);
      ("obs", Test_obs.suite);
      ("engine", Test_sim.suite);
      ("engine.indexed", Test_indexed.suite);
      ("engine.fault", Test_fault.suite);
      ("multi", Test_multi.suite);
      ("conform", Test_conform.suite);
      ("workload", Test_workload.suite);
    ]
