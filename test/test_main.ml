let () =
  Alcotest.run "liquid"
    [
      ("logic", Test_logic.tests);
      ("smt", Test_smt.tests);
      ("lang", Test_lang.tests);
      ("typing", Test_typing.tests);
      ("anf", Test_anf.tests);
      ("eval", Test_eval.tests);
      ("qualifier", Test_qualifier.tests);
      ("rtype", Test_rtype.tests);
      ("liquid", Test_liquid.tests);
      ("suite", Test_suite.tests);
      ("soundness", Test_soundness.tests);
      ("measures", Test_measures.tests);
      ("adt", Test_adt.tests);
      ("extended", Test_extended.tests);
      ("spec", Test_spec.tests);
      ("driver", Test_driver.tests);
      ("analysis", Test_analysis.tests);
      ("tricky", Test_tricky.tests);
      ("partition", Test_partition.tests);
      ("cache", Test_cache.tests);
      ("server", Test_server.tests);
      ("explain", Test_explain.tests);
      ("elim", Test_elim.tests);
      ("prune", Test_elim.prune_tests);
      ("gradual", Test_gradual.tests);
    ]
