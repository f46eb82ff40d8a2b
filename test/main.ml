let () =
  Alcotest.run "dolx"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("xml", Test_xml.suite);
      ("policy", Test_policy.suite);
      ("dol", Test_dol.suite);
      ("cam", Test_cam.suite);
      ("storage", Test_storage.suite);
      ("index", Test_index.suite);
      ("nok", Test_nok.suite);
      ("secure", Test_secure.suite);
      ("runs", Test_runs.suite);
      ("workload", Test_workload.suite);
      ("view", Test_view.suite);
      ("ext", Test_ext.suite);
      ("persist", Test_persist.suite);
      ("edge", Test_edge.suite);
      ("structural", Test_structural.suite);
      ("coverage", Test_coverage.suite);
      ("faults", Test_faults.suite);
      ("parallel", Test_parallel.suite);
      ("mvcc", Test_mvcc.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
      ("wire", Test_wire.suite);
    ]
