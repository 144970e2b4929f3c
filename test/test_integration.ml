(* End-to-end integration tests: the full audit pipeline on the
   reduced-scale corpus, cross-checking the artifacts against each other
   and against the paper's headline numbers. *)

let ratios =
  lazy
    (let d = Gpuperf.Device.titan_v in
     List.map (fun (l, r) -> (l, r)) (Gpuperf.Suites.gemm_comparison ~device:d)
     @ List.map (fun (l, _, r) -> (l, r)) (Gpuperf.Suites.conv_comparison ~device:d))

let audit =
  lazy
    (Iso26262.Audit.run ~specs:Corpus.Apollo_profile.small
       ~open_vs_closed:(Lazy.force ratios) ())

let test_audit_completes () =
  let a = Lazy.force audit in
  Alcotest.(check int) "8 coding findings" 8 (List.length a.Iso26262.Audit.coding);
  Alcotest.(check int) "7 architecture findings" 7
    (List.length a.Iso26262.Audit.architecture);
  Alcotest.(check int) "10 unit findings" 10 (List.length a.Iso26262.Audit.unit_design);
  Alcotest.(check int) "14 observations" 14 (List.length a.Iso26262.Audit.observations)

let test_audit_coverage_artifacts () =
  let a = Lazy.force audit in
  Alcotest.(check int) "10 yolo files measured" 10
    (List.length a.Iso26262.Audit.yolo_coverage);
  Alcotest.(check int) "2 stencil files measured" 2
    (List.length a.Iso26262.Audit.stencil_coverage);
  Alcotest.(check bool) "yolo scenarios printed" true
    (Util.Strutil.contains_sub ~sub:"passed 5" a.Iso26262.Audit.yolo_run_output
     || Util.Strutil.contains_sub ~sub:"passed" a.Iso26262.Audit.yolo_run_output)

let test_audit_render_contains_all_artifacts () =
  let s = Iso26262.Audit.render (Lazy.force audit) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("render mentions " ^ needle) true
        (Util.Strutil.contains_sub ~sub:needle s))
    [ "Figure 3"; "Table 1"; "Table 2"; "Table 3"; "Figure 5"; "Figure 6";
      "Observations"; "ASIL-D" ]

let test_audit_observations_hold () =
  Alcotest.(check bool) "all observations hold on the small corpus" true
    (Iso26262.Observations.all_hold (Lazy.force audit).Iso26262.Audit.observations)

let test_audit_deterministic () =
  let a = Iso26262.Audit.run ~specs:Corpus.Apollo_profile.small ~open_vs_closed:[] () in
  let b = Iso26262.Audit.run ~specs:Corpus.Apollo_profile.small ~open_vs_closed:[] () in
  Alcotest.(check int) "same casts"
    a.Iso26262.Audit.metrics.Iso26262.Project_metrics.explicit_casts
    b.Iso26262.Audit.metrics.Iso26262.Project_metrics.explicit_casts;
  Alcotest.(check int) "same loc"
    a.Iso26262.Audit.metrics.Iso26262.Project_metrics.total_loc
    b.Iso26262.Audit.metrics.Iso26262.Project_metrics.total_loc;
  let mis r = r.Iso26262.Audit.metrics.Iso26262.Project_metrics.misra.Misra.Registry.total_violations in
  Alcotest.(check int) "same misra violations" (mis a) (mis b)

let test_cross_artifact_consistency () =
  (* the same corpus drives both Figure 3 and Table 1 item 1: totals agree *)
  let a = Lazy.force audit in
  let m = a.Iso26262.Audit.metrics in
  let fig3_over10 =
    Util.Stats.sum_int
      (List.map
         (fun (mm : Iso26262.Project_metrics.module_metrics) ->
           mm.Iso26262.Project_metrics.complexity.Metrics.Complexity.over_10)
         m.Iso26262.Project_metrics.modules)
  in
  Alcotest.(check int) "Figure 3 totals = Table 1 evidence" fig3_over10
    m.Iso26262.Project_metrics.over10;
  (* the compliance summary counts verdicts consistently *)
  let findings = Iso26262.Audit.all_findings a in
  let passed, binding = Iso26262.Assess.compliance_at ~asil:Iso26262.Asil.D findings in
  let manual_pass =
    List.length
      (List.filter
         (fun (f : Iso26262.Assess.finding) ->
           f.Iso26262.Assess.verdict = Iso26262.Assess.Pass
           && Iso26262.Asil.binding f.Iso26262.Assess.topic.Iso26262.Guidelines.recs
                Iso26262.Asil.D)
         findings)
  in
  Alcotest.(check int) "compliance count agrees" manual_pass passed;
  Alcotest.(check bool) "binding sensible" true (binding > 20)

let test_gpu_ratios_feed_observation12 () =
  let a = Lazy.force audit in
  let obs12 =
    List.find
      (fun (o : Iso26262.Observations.t) -> o.Iso26262.Observations.number = 12)
      a.Iso26262.Audit.observations
  in
  Alcotest.(check bool) "obs 12 holds with ratios" true obs12.Iso26262.Observations.holds

(* full-scale smoke (paper headline numbers), marked slow *)
let test_full_scale_headlines () =
  let a =
    Iso26262.Audit.run ~specs:Corpus.Apollo_profile.full
      ~open_vs_closed:(Lazy.force ratios) ()
  in
  let m = a.Iso26262.Audit.metrics in
  Alcotest.(check bool) "over 220k LOC" true (m.Iso26262.Project_metrics.total_loc > 220_000);
  Alcotest.(check int) "exactly 554 functions above CC 10" 554
    m.Iso26262.Project_metrics.over10;
  Alcotest.(check bool) "over 1400 casts" true
    (m.Iso26262.Project_metrics.explicit_casts > 1_400);
  (match Iso26262.Project_metrics.find_module m "perception" with
   | Some pm -> Alcotest.(check int) "900 perception globals" 900 pm.Iso26262.Project_metrics.globals
   | None -> Alcotest.fail "perception missing");
  let stmt, branch, mcdc = Coverage.Collector.averages a.Iso26262.Audit.yolo_coverage in
  Alcotest.(check bool) "coverage averages near 83/75/61" true
    (abs_float (stmt -. 83.0) < 8.0 && abs_float (branch -. 75.0) < 8.0
     && abs_float (mcdc -. 61.0) < 8.0);
  (* component-size guideline fails at paper scale (Observation 13) *)
  let comp_size =
    List.find
      (fun (f : Iso26262.Assess.finding) ->
        f.Iso26262.Assess.topic.Iso26262.Guidelines.table = Iso26262.Guidelines.Architecture
        && f.Iso26262.Assess.topic.Iso26262.Guidelines.index = 2)
      a.Iso26262.Audit.architecture
  in
  Alcotest.(check bool) "component size fails at full scale" true
    (comp_size.Iso26262.Assess.verdict = Iso26262.Assess.Fail)

(* The subcommands that print the extension rows of EXPERIMENTS.md, run
   through the shipped binary: each must exit 0 and print its headline
   lines (the small-scale values of the rows' full-scale figures). *)
let check_cli args lines =
  let rc, out = Fixture.run_adcheck args in
  Alcotest.(check int) (args ^ ": exit code") 0 rc;
  let printed = String.split_on_char '\n' out in
  List.iter
    (fun l ->
      if not (List.mem l printed) then
        Alcotest.failf "adcheck %s: no line %S in\n%s" args l out)
    lines

let test_cli_wcet () =
  check_cli "wcet --scale small"
    [ "perception      120 functions:   67 analyzable,   52 parametric,   1 unanalyzable";
      "common           28 functions:   15 analyzable,   12 parametric,   1 unanalyzable" ]

let test_cli_brook () =
  check_cli "brook --scale small"
    [ "1 kernels: 0 pure stream, 1 need gather, 0 not portable" ]

let test_cli_faults () =
  check_cli "faults"
    [ "4 of 4 undefended scenarios fault; 7 of 7 scenarios behave as the static";
      "defensive-implementation analysis (Table 1 item 4) predicts." ]

let test_cli_interproc () =
  check_cli "interproc --scale small"
    [ "call graph: 453 functions, 1708 call sites (1700 resolved, 0 guessed, \
       0 ambiguous, 8 unresolved, 0 indirect, 1 kernel launches, 0 function \
       pointers taken)";
      "condensation: 453 SCCs in 15 levels";
      "recursion cycles: 6";
      "side effects: 448 of 453 functions pure" ]

let test_cli_combined_coverage () =
  check_cli "coverage --subject combined"
    [ "scenarios run: 17";
      "average: statement 91.3%, branch 88.1%, MC/DC 68.0%" ]

let () =
  Alcotest.run "integration"
    [
      ( "audit",
        [
          Alcotest.test_case "completes" `Quick test_audit_completes;
          Alcotest.test_case "coverage artifacts" `Quick test_audit_coverage_artifacts;
          Alcotest.test_case "render complete" `Quick test_audit_render_contains_all_artifacts;
          Alcotest.test_case "observations hold" `Quick test_audit_observations_hold;
          Alcotest.test_case "deterministic" `Quick test_audit_deterministic;
          Alcotest.test_case "cross-artifact consistency" `Quick
            test_cross_artifact_consistency;
          Alcotest.test_case "gpu ratios feed obs 12" `Quick
            test_gpu_ratios_feed_observation12;
        ] );
      ( "cli",
        [
          Alcotest.test_case "wcet" `Quick test_cli_wcet;
          Alcotest.test_case "brook" `Quick test_cli_brook;
          Alcotest.test_case "faults" `Quick test_cli_faults;
          Alcotest.test_case "interproc" `Quick test_cli_interproc;
          Alcotest.test_case "combined coverage" `Quick test_cli_combined_coverage;
        ] );
      ( "full-scale",
        [ Alcotest.test_case "paper headline numbers" `Slow test_full_scale_headlines ] );
    ]
