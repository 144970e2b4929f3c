(* Tests for the corpus: generator determinism and quota exactness, the
   Apollo profile, and the embedded YOLO / stencil programs. *)

let small_one = [ List.hd Corpus.Apollo_profile.small ]

let contents project =
  List.map (fun f -> f.Cfront.Project.content) (Cfront.Project.all_files project)

(* ------------------------------------------------------------------ *)
(* Generator determinism                                                *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let a = Corpus.Generator.generate ~seed:123 small_one in
  let b = Corpus.Generator.generate ~seed:123 small_one in
  Alcotest.(check bool) "byte-identical output" true (contents a = contents b)

let test_generator_seed_sensitivity () =
  let a = Corpus.Generator.generate ~seed:1 small_one in
  let b = Corpus.Generator.generate ~seed:2 small_one in
  Alcotest.(check bool) "different seeds differ" true (contents a <> contents b)

let test_generator_parses_clean () =
  let parsed = Cfront.Project.parse (Corpus.Generator.generate ~seed:5 Corpus.Apollo_profile.small) in
  let diags =
    List.concat_map
      (fun pf -> (Cfront.Project.tu pf).Cfront.Ast.diags)
      parsed.Cfront.Project.files
  in
  Alcotest.(check (list string)) "no diagnostics anywhere" [] diags

(* ------------------------------------------------------------------ *)
(* Quota exactness on a single module                                   *)
(* ------------------------------------------------------------------ *)

let spec = List.hd small_one  (* scaled perception *)

let parsed_small = lazy (Cfront.Project.parse (Corpus.Generator.generate ~seed:2019 small_one))

let fns () = Cfront.Project.all_functions (Lazy.force parsed_small)

let test_quota_over10 () =
  let over10 =
    List.length
      (List.filter
         (fun (c : Metrics.Complexity.func_cc) -> c.Metrics.Complexity.cc > 10)
         (Metrics.Complexity.of_functions (fns ())))
  in
  Alcotest.(check int) "over10 exact" spec.Corpus.Apollo_profile.over10 over10

let test_quota_globals () =
  let globals =
    Metrics.Globals.of_files (Lazy.force parsed_small).Cfront.Project.files
  in
  Alcotest.(check int) "globals exact" spec.Corpus.Apollo_profile.globals
    (List.length globals)

let test_quota_casts_at_least () =
  (* the spec quota is exact for generated statements; CUDA host wrappers
     add their intrinsic void-pointer casts on top *)
  let casts = Metrics.Casts.explicit_count (Metrics.Casts.of_functions (fns ())) in
  Alcotest.(check bool) "at least quota" true (casts >= spec.Corpus.Apollo_profile.casts);
  Alcotest.(check bool) "bounded overhead" true
    (casts <= spec.Corpus.Apollo_profile.casts + (2 * spec.Corpus.Apollo_profile.cuda_kernels))

let test_quota_uninit_bounded () =
  let n = List.length (Metrics.Uninit.of_facts (List.map Dataflow.Analyses.facts_of_func (fns ()))) in
  Alcotest.(check bool) "within quota" true (n <= spec.Corpus.Apollo_profile.uninit_vars);
  Alcotest.(check bool) "some emitted" true (n > 0)

let test_quota_kernels () =
  let kernels =
    List.length
      (List.filter
         (fun (f : Cfront.Ast.func) -> List.mem Cfront.Ast.Q_global f.Cfront.Ast.f_quals)
         (fns ()))
  in
  Alcotest.(check int) "kernels exact" spec.Corpus.Apollo_profile.cuda_kernels kernels

let test_quota_recursion () =
  let g = Cfront.Callgraph.build (fns ()) in
  Alcotest.(check int) "recursive functions exact"
    spec.Corpus.Apollo_profile.recursive_fns
    (List.length (Cfront.Callgraph.recursive_functions g))

let test_multi_exit_close_to_spec () =
  let frac = Metrics.Func_shape.multi_exit_fraction (fns ()) in
  let target = spec.Corpus.Apollo_profile.multi_exit_frac in
  Alcotest.(check bool) "within 6 points of target" true (abs_float (frac -. target) < 0.06)

let test_loc_close_to_target () =
  let loc =
    (Metrics.Loc_metrics.of_files (Lazy.force parsed_small).Cfront.Project.files)
      .Metrics.Loc_metrics.physical
  in
  let target = spec.Corpus.Apollo_profile.target_loc in
  Alcotest.(check bool) "within 20% of target LOC" true
    (float_of_int (abs (loc - target)) /. float_of_int target < 0.2)

let test_style_clean () =
  let findings = Metrics.Style.of_files (Lazy.force parsed_small).Cfront.Project.files in
  Alcotest.(check int) "generator emits style-clean code" 0 (List.length findings)

let test_naming_clean () =
  let findings = Metrics.Naming.of_files (Lazy.force parsed_small).Cfront.Project.files in
  Alcotest.(check int) "generator follows Google naming" 0 (List.length findings)

(* Cross-validation: independent analyzers must agree on the corpus. *)

let misra_report =
  lazy (Misra.Registry.run (Misra.Rule.build_context (Lazy.force parsed_small)))

let rule_count id =
  let report = Lazy.force misra_report in
  match
    List.find_opt (fun ((r : Misra.Rule.t), _) -> r.Misra.Rule.id = id)
      report.Misra.Registry.per_rule
  with
  | Some (_, vs) -> List.length vs
  | None -> Alcotest.failf "rule %s missing" id

let test_crossval_goto_rule_vs_metric () =
  Alcotest.(check int) "MISRA 15.1 agrees with Func_shape goto census"
    (Metrics.Func_shape.total_gotos (fns ()))
    (rule_count "15.1")

let test_crossval_recursion_rule_vs_callgraph () =
  let g = Cfront.Callgraph.build (fns ()) in
  Alcotest.(check int) "MISRA 17.2 agrees with call-graph SCCs"
    (List.length (Cfront.Callgraph.recursive_functions g))
    (rule_count "17.2")

let test_crossval_cuda1_vs_census () =
  let census = Cudasim.Census.of_files (Lazy.force parsed_small).Cfront.Project.files in
  Alcotest.(check int) "CUDA-1 agrees with bound-check census"
    census.Cudasim.Census.kernels_without_bound_check
    (rule_count "CUDA-1")

let test_crossval_uninit_rule_vs_metric () =
  Alcotest.(check int) "MISRA 9.1 agrees with the uninitialized-read analysis"
    (List.length (Metrics.Uninit.of_facts (List.map Dataflow.Analyses.facts_of_func (fns ()))))
    (rule_count "9.1")

let test_crossval_ignored_returns () =
  let fns = fns () in
  Alcotest.(check int) "MISRA 17.7 agrees with the defensive analysis"
    (List.length (Metrics.Defensive.ignored_returns ~funcs:fns fns))
    (rule_count "17.7")

(* ------------------------------------------------------------------ *)
(* Apollo profile                                                       *)
(* ------------------------------------------------------------------ *)

let test_profile_totals () =
  Alcotest.(check bool) "paper scale: >220k LOC" true
    (Corpus.Apollo_profile.total_loc Corpus.Apollo_profile.full > 220_000);
  Alcotest.(check int) "paper: 554 functions above CC 10" 554
    (Corpus.Apollo_profile.total_over10 Corpus.Apollo_profile.full);
  Alcotest.(check bool) "paper: >1400 casts" true
    (Corpus.Apollo_profile.total_casts Corpus.Apollo_profile.full > 1_400)

let test_profile_module_sizes () =
  List.iter
    (fun (s : Corpus.Apollo_profile.module_spec) ->
      Alcotest.(check bool)
        (s.Corpus.Apollo_profile.name ^ " between 5k and 65k LOC") true
        (s.Corpus.Apollo_profile.target_loc >= 5_000
         && s.Corpus.Apollo_profile.target_loc <= 65_000))
    Corpus.Apollo_profile.full

let test_profile_scaling_preserves_shape () =
  let scaled = Corpus.Apollo_profile.scale ~factor:0.5 Corpus.Apollo_profile.perception in
  Alcotest.(check bool) "loc halved" true
    (abs (scaled.Corpus.Apollo_profile.target_loc - 30_500) < 10);
  Alcotest.(check bool) "over-counts nested" true
    (scaled.Corpus.Apollo_profile.over10 >= scaled.Corpus.Apollo_profile.over20
     && scaled.Corpus.Apollo_profile.over20 >= scaled.Corpus.Apollo_profile.over50)

(* ------------------------------------------------------------------ *)
(* Embedded YOLO sources                                                *)
(* ------------------------------------------------------------------ *)

let yolo_run =
  lazy
    (let tus = Corpus.Yolo_src.parse_all () in
     let measured = List.map fst Corpus.Yolo_src.measured_files in
     (tus, Cudasim.Runner.run ~entry:Corpus.Yolo_src.entry ~measured tus))

let test_yolo_parses_clean () =
  let tus, _ = Lazy.force yolo_run in
  List.iter
    (fun (tu : Cfront.Ast.tu) ->
      Alcotest.(check (list string)) (tu.Cfront.Ast.tu_file ^ " clean") []
        tu.Cfront.Ast.diags)
    tus

let test_yolo_scenarios_pass () =
  let _, result = Lazy.force yolo_run in
  match result.Cudasim.Runner.exit_value with
  | Ok v -> Alcotest.(check int64) "all five scenarios pass" 10L (Coverage.Value.as_int v)
  | Error e -> Alcotest.failf "run failed: %s" e

let test_yolo_coverage_shape () =
  let _, result = Lazy.force yolo_run in
  let stmt, branch, mcdc = Coverage.Collector.averages result.Cudasim.Runner.files in
  (* the paper's Figure 5 shape: ~83/75/61 with low coverage present *)
  Alcotest.(check bool) "stmt avg near 83" true (stmt > 75.0 && stmt < 92.0);
  Alcotest.(check bool) "branch avg near 75" true (branch > 68.0 && branch < 88.0);
  Alcotest.(check bool) "mcdc avg near 61" true (mcdc > 50.0 && mcdc < 75.0);
  Alcotest.(check bool) "mcdc <= branch <= stmt on averages" true
    (mcdc <= branch && branch <= stmt);
  let min_stmt =
    Util.Stats.minimum
      (List.map (fun f -> f.Coverage.Collector.stmt_pct) result.Cudasim.Runner.files)
  in
  Alcotest.(check bool) "a low-coverage file exists" true (min_stmt < 40.0)

let test_yolo_output_scenarios () =
  let _, result = Lazy.force yolo_run in
  Alcotest.(check bool) "scenario output present" true
    (Util.Strutil.contains_sub ~sub:"scenario1 checksum" result.Cudasim.Runner.output)

(* ------------------------------------------------------------------ *)
(* Per-test scenario split golden                                       *)
(*                                                                      *)
(* The scenario set runs the driver's five test functions as            *)
(* independent scenarios (one env each) instead of one monolithic       *)
(* main().  Golden obligation: the combined measured coverage is        *)
(* unchanged — same per-function statement/branch/condition counts,     *)
(* same file percentages, same excluded-function counts.  Attribution   *)
(* (first_covered_by) legitimately differs (it now names the specific   *)
(* covering test), so it is not part of the comparison.                 *)
(* ------------------------------------------------------------------ *)

let test_split_scenarios_golden () =
  (* ONE parse shared by both runs, as in production *)
  let tus = Corpus.Yolo_src.parse_all () in
  let measured = List.map fst Corpus.Yolo_src.measured_files in
  let run_entries entries =
    let col = Coverage.Collector.create () in
    List.iter
      (fun e ->
        let hooks = Coverage.Collector.hooks col in
        match fst (Fixture.run_coverage ~hooks ~entry:e tus) with
        | Ok _ -> ()
        | Error err -> Alcotest.failf "entry %s failed: %s" e err)
      entries;
    col
  in
  let mono = run_entries [ Corpus.Yolo_src.entry ] in
  let split =
    Coverage.Collector.merge
      (List.map
         (fun fn -> run_entries [ fn ])
         Corpus.Yolo_src.scenario_entries)
  in
  let lines col =
    List.concat_map
      (fun (tu : Cfront.Ast.tu) ->
        if not (List.mem tu.Cfront.Ast.tu_file measured) then []
        else
          let f =
            Coverage.Collector.score_file col ~file:tu.Cfront.Ast.tu_file
              (Coverage.Instrument.of_tu tu)
          in
          Printf.sprintf "%s excluded=%d stmt=%.6f branch=%.6f mcdc=%.6f fn=%.6f"
            f.Coverage.Collector.file f.Coverage.Collector.excluded
            f.Coverage.Collector.stmt_pct f.Coverage.Collector.branch_pct
            f.Coverage.Collector.mcdc_pct f.Coverage.Collector.function_pct
          :: List.map
               (fun (fc : Coverage.Collector.func_coverage) ->
                 Printf.sprintf
                   "  %s called=%b stmt=%d/%d branch=%d/%d cond=%d/%d"
                   fc.Coverage.Collector.fp.Coverage.Instrument.fp_name
                   fc.Coverage.Collector.called
                   fc.Coverage.Collector.stmts_hit
                   fc.Coverage.Collector.stmts_total
                   fc.Coverage.Collector.branches_hit
                   fc.Coverage.Collector.branches_total
                   fc.Coverage.Collector.conditions_hit
                   fc.Coverage.Collector.conditions_total)
               f.Coverage.Collector.functions)
      tus
  in
  let mono_lines = lines mono in
  Alcotest.(check bool) "golden is nonempty" true (mono_lines <> []);
  Alcotest.(check (list string)) "split == monolithic on measured files"
    mono_lines (lines split)

let test_split_scenarios_in_set () =
  let set = Corpus.Scenario_set.full () in
  List.iter
    (fun fn ->
      Alcotest.(check bool)
        (fn ^ " has its own scenario") true
        (List.exists
           (fun (sc : Coverage.Scenario.t) ->
             sc.Coverage.Scenario.sc_entries = [ fn ])
           set.Corpus.Scenario_set.scenarios))
    Corpus.Yolo_src.scenario_entries

(* ------------------------------------------------------------------ *)
(* Embedded stencil sources                                             *)
(* ------------------------------------------------------------------ *)

let stencil_run =
  lazy
    (let tus = Corpus.Stencil_src.parse_all () in
     let measured = List.map fst Corpus.Stencil_src.measured_files in
     (tus, Cudasim.Runner.run ~entry:Corpus.Stencil_src.entry ~measured tus))

let test_stencil_parses_and_runs () =
  let tus, result = Lazy.force stencil_run in
  List.iter
    (fun (tu : Cfront.Ast.tu) ->
      Alcotest.(check (list string)) "clean" [] tu.Cfront.Ast.diags)
    tus;
  match result.Cudasim.Runner.exit_value with
  | Ok v -> Alcotest.(check int64) "exit 0" 0L (Coverage.Value.as_int v)
  | Error e -> Alcotest.failf "run failed: %s" e

let test_stencil_below_full_coverage () =
  let _, result = Lazy.force stencil_run in
  Alcotest.(check int) "two measured kernels" 2 (List.length result.Cudasim.Runner.files);
  List.iter
    (fun (f : Coverage.Collector.file_coverage) ->
      Alcotest.(check bool) (f.Coverage.Collector.file ^ " below 100%") true
        (f.Coverage.Collector.stmt_pct < 100.0 || f.Coverage.Collector.branch_pct < 100.0);
      Alcotest.(check bool) "still substantial" true (f.Coverage.Collector.stmt_pct > 70.0))
    result.Cudasim.Runner.files

let test_stencil_census () =
  let _, result = Lazy.force stencil_run in
  let c = result.Cudasim.Runner.census in
  Alcotest.(check int) "two kernels" 2 c.Cudasim.Census.kernels;
  Alcotest.(check int) "four cudaMalloc" 4 c.Cudasim.Census.cuda_mallocs;
  Alcotest.(check bool) "launches recorded" true (c.Cudasim.Census.kernel_launches >= 2)

let () =
  Alcotest.run "corpus"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_generator_seed_sensitivity;
          Alcotest.test_case "parses clean" `Slow test_generator_parses_clean;
        ] );
      ( "quotas",
        [
          Alcotest.test_case "over10 exact" `Quick test_quota_over10;
          Alcotest.test_case "globals exact" `Quick test_quota_globals;
          Alcotest.test_case "casts at least" `Quick test_quota_casts_at_least;
          Alcotest.test_case "uninit bounded" `Quick test_quota_uninit_bounded;
          Alcotest.test_case "kernels exact" `Quick test_quota_kernels;
          Alcotest.test_case "recursion exact" `Quick test_quota_recursion;
          Alcotest.test_case "multi-exit near target" `Quick test_multi_exit_close_to_spec;
          Alcotest.test_case "loc near target" `Quick test_loc_close_to_target;
          Alcotest.test_case "style clean" `Quick test_style_clean;
          Alcotest.test_case "naming clean" `Quick test_naming_clean;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "goto: rule vs metric" `Quick test_crossval_goto_rule_vs_metric;
          Alcotest.test_case "recursion: rule vs callgraph" `Quick
            test_crossval_recursion_rule_vs_callgraph;
          Alcotest.test_case "cuda-1 vs census" `Quick test_crossval_cuda1_vs_census;
          Alcotest.test_case "uninit: rule vs metric" `Quick test_crossval_uninit_rule_vs_metric;
          Alcotest.test_case "ignored returns" `Quick test_crossval_ignored_returns;
        ] );
      ( "profile",
        [
          Alcotest.test_case "totals match paper" `Quick test_profile_totals;
          Alcotest.test_case "module sizes" `Quick test_profile_module_sizes;
          Alcotest.test_case "scaling" `Quick test_profile_scaling_preserves_shape;
        ] );
      ( "yolo",
        [
          Alcotest.test_case "parses clean" `Quick test_yolo_parses_clean;
          Alcotest.test_case "scenarios pass" `Quick test_yolo_scenarios_pass;
          Alcotest.test_case "coverage shape matches Figure 5" `Quick test_yolo_coverage_shape;
          Alcotest.test_case "scenario output" `Quick test_yolo_output_scenarios;
          Alcotest.test_case "split scenarios golden" `Slow
            test_split_scenarios_golden;
          Alcotest.test_case "split scenarios in set" `Slow
            test_split_scenarios_in_set;
        ] );
      ( "stencil",
        [
          Alcotest.test_case "parses and runs" `Quick test_stencil_parses_and_runs;
          Alcotest.test_case "below full coverage" `Quick test_stencil_below_full_coverage;
          Alcotest.test_case "census" `Quick test_stencil_census;
        ] );
    ]
