(* Tests for the ISO 26262 compliance engine: ASIL model, guideline
   tables, metric extraction, assessment verdicts, observations and
   report rendering. *)

(* shared small audit context *)
let parsed =
  lazy (Cfront.Project.parse (Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small))

let metrics = lazy (Iso26262.Project_metrics.of_parsed (Lazy.force parsed))

(* ------------------------------------------------------------------ *)
(* ASIL model                                                           *)
(* ------------------------------------------------------------------ *)

let test_asil_strings () =
  List.iter
    (fun asil ->
      Alcotest.(check (option string)) "roundtrip"
        (Some (Iso26262.Asil.to_string asil))
        (Option.map Iso26262.Asil.to_string
           (Iso26262.Asil.of_string (Iso26262.Asil.to_string asil))))
    Iso26262.Asil.all

let test_asil_matrix_lookup () =
  let m = { Iso26262.Asil.a = Iso26262.Asil.o; b = Iso26262.Asil.p;
            c = Iso26262.Asil.pp; d = Iso26262.Asil.pp } in
  Alcotest.(check string) "A is o" "o"
    (Iso26262.Asil.rec_to_string (Iso26262.Asil.for_asil m Iso26262.Asil.A));
  Alcotest.(check bool) "A not binding" false (Iso26262.Asil.binding m Iso26262.Asil.A);
  Alcotest.(check bool) "B binding" true (Iso26262.Asil.binding m Iso26262.Asil.B);
  Alcotest.(check bool) "D binding" true (Iso26262.Asil.binding m Iso26262.Asil.D)

(* ------------------------------------------------------------------ *)
(* Guideline tables                                                     *)
(* ------------------------------------------------------------------ *)

let test_guideline_table_sizes () =
  Alcotest.(check int) "coding topics" 8 (List.length Iso26262.Guidelines.coding);
  Alcotest.(check int) "architecture topics" 7 (List.length Iso26262.Guidelines.architecture);
  Alcotest.(check int) "unit topics" 10 (List.length Iso26262.Guidelines.unit_design);
  Alcotest.(check int) "total" 25 (List.length Iso26262.Guidelines.all)

let test_guideline_find () =
  match Iso26262.Guidelines.find ~table:Iso26262.Guidelines.Unit_design ~index:10 with
  | Some t -> Alcotest.(check string) "recursion topic" "No recursions" t.Iso26262.Guidelines.title
  | None -> Alcotest.fail "topic missing"

let test_guideline_paper_matrix_spotchecks () =
  (* spot-check recommendation cells against the paper's tables *)
  let rec_of table index asil =
    match Iso26262.Guidelines.find ~table ~index with
    | Some t -> Iso26262.Asil.rec_to_string (Iso26262.Asil.for_asil t.Iso26262.Guidelines.recs asil)
    | None -> "?"
  in
  (* Table 1 row 4 (defensive): o + ++ ++ *)
  Alcotest.(check string) "T1.4 A" "o" (rec_of Iso26262.Guidelines.Coding 4 Iso26262.Asil.A);
  Alcotest.(check string) "T1.4 D" "++" (rec_of Iso26262.Guidelines.Coding 4 Iso26262.Asil.D);
  (* Table 3 row 3 (interfaces): + + + + *)
  Alcotest.(check string) "T3.3 D" "+" (rec_of Iso26262.Guidelines.Architecture 3 Iso26262.Asil.D);
  (* Table 8 row 6 (pointers): o + + ++ *)
  Alcotest.(check string) "T8.6 A" "o" (rec_of Iso26262.Guidelines.Unit_design 6 Iso26262.Asil.A);
  Alcotest.(check string) "T8.6 D" "++" (rec_of Iso26262.Guidelines.Unit_design 6 Iso26262.Asil.D)

(* ------------------------------------------------------------------ *)
(* Project metrics                                                      *)
(* ------------------------------------------------------------------ *)

let test_metrics_module_list () =
  let m = Lazy.force metrics in
  Alcotest.(check int) "nine modules" 9 (List.length m.Iso26262.Project_metrics.modules);
  Alcotest.(check bool) "perception present" true
    (Iso26262.Project_metrics.find_module m "perception" <> None)

let test_metrics_consistency () =
  let m = Lazy.force metrics in
  Alcotest.(check bool) "over counts nested" true
    (m.Iso26262.Project_metrics.over10 >= m.Iso26262.Project_metrics.over20
     && m.Iso26262.Project_metrics.over20 >= m.Iso26262.Project_metrics.over50);
  Alcotest.(check bool) "loc positive" true (m.Iso26262.Project_metrics.total_loc > 0);
  Alcotest.(check bool) "functions positive" true
    (m.Iso26262.Project_metrics.total_functions > 0);
  Alcotest.(check bool) "multi-exit fraction in [0,1]" true
    (m.Iso26262.Project_metrics.multi_exit_frac >= 0.0
     && m.Iso26262.Project_metrics.multi_exit_frac <= 1.0);
  (* [of_parsed] hands one rule context to both phases; without it each
     phase builds its own, and must produce the same values.  [compare]
     (not [=]) because the reports hold the registry's rule closures,
     which are physically shared. *)
  let parsed = Lazy.force parsed in
  let misra = Iso26262.Project_metrics.misra_of_parsed parsed in
  Alcotest.(check bool) "misra_of_parsed without a context" true
    (compare misra m.Iso26262.Project_metrics.misra = 0);
  let standalone =
    Iso26262.Project_metrics.of_parsed_with
      ~misra:(fun () -> m.Iso26262.Project_metrics.misra)
      ~module_dataflow:(Iso26262.Project_metrics.module_dataflow_of_parsed parsed)
      parsed
  in
  Alcotest.(check bool) "of_parsed_with without a context" true
    (compare standalone m = 0)

let test_metrics_cuda_only_in_perception () =
  let m = Lazy.force metrics in
  Alcotest.(check bool) "kernels found" true
    (m.Iso26262.Project_metrics.cuda.Cudasim.Census.kernels > 0)

(* ------------------------------------------------------------------ *)
(* Assessment verdicts: the paper's pattern                             *)
(* ------------------------------------------------------------------ *)

let coding = lazy (Iso26262.Assess.assess_coding (Lazy.force metrics))
let architecture = lazy (Iso26262.Assess.assess_architecture (Lazy.force metrics))
let unit_design = lazy (Iso26262.Assess.assess_unit_design (Lazy.force metrics))

let verdict_of findings index =
  (List.find
     (fun (f : Iso26262.Assess.finding) -> f.Iso26262.Assess.topic.Iso26262.Guidelines.index = index)
     findings)
    .Iso26262.Assess.verdict

let test_coding_verdict_pattern () =
  let f = Lazy.force coding in
  (* the paper: complexity, subsets, typing, defensive, design principles
     all fail; graphical N/A; style and naming pass *)
  Alcotest.(check bool) "complexity fails" true (verdict_of f 1 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "subsets fail" true (verdict_of f 2 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "typing fails" true (verdict_of f 3 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "defensive fails" true (verdict_of f 4 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "graphical n/a" true (verdict_of f 6 = Iso26262.Assess.Not_applicable);
  Alcotest.(check bool) "style passes" true (verdict_of f 7 = Iso26262.Assess.Pass);
  Alcotest.(check bool) "naming passes" true (verdict_of f 8 = Iso26262.Assess.Pass)

let test_architecture_verdict_pattern () =
  let f = Lazy.force architecture in
  (* component size is scale-dependent: asserted FAIL on the full-scale
     corpus in the integration suite; here only the scale-free verdicts *)
  Alcotest.(check bool) "scheduling fails" true (verdict_of f 6 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "interrupts pass" true (verdict_of f 7 = Iso26262.Assess.Pass)

let test_unit_verdict_pattern () =
  let f = Lazy.force unit_design in
  Alcotest.(check bool) "multi-exit fails" true (verdict_of f 1 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "dynamic memory fails" true (verdict_of f 2 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "initialization fails" true (verdict_of f 3 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "globals fail" true (verdict_of f 5 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "pointers fail" true (verdict_of f 6 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "gotos fail" true (verdict_of f 9 = Iso26262.Assess.Fail);
  Alcotest.(check bool) "recursion fails" true (verdict_of f 10 = Iso26262.Assess.Fail)

let test_every_finding_has_evidence () =
  List.iter
    (fun (f : Iso26262.Assess.finding) ->
      Alcotest.(check bool) "evidence non-empty" true
        (String.length f.Iso26262.Assess.evidence > 0))
    (Lazy.force coding @ Lazy.force architecture @ Lazy.force unit_design)

let test_compliance_at_asil () =
  let all = Lazy.force coding @ Lazy.force architecture @ Lazy.force unit_design in
  let pass_a, bind_a = Iso26262.Assess.compliance_at ~asil:Iso26262.Asil.A all in
  let pass_d, bind_d = Iso26262.Assess.compliance_at ~asil:Iso26262.Asil.D all in
  Alcotest.(check bool) "binding grows with ASIL" true (bind_d >= bind_a);
  Alcotest.(check bool) "passes bounded" true (pass_a <= bind_a && pass_d <= bind_d);
  Alcotest.(check bool) "not compliant at D" true (pass_d < bind_d)

let test_thresholds_change_verdicts () =
  (* permissive thresholds flip the complexity verdict *)
  let lenient =
    { Iso26262.Assess.default_thresholds with
      Iso26262.Assess.max_over10_functions = 1_000_000 }
  in
  let f = Iso26262.Assess.assess_coding ~th:lenient (Lazy.force metrics) in
  Alcotest.(check bool) "complexity passes under lenient threshold" true
    (verdict_of f 1 = Iso26262.Assess.Pass)

(* ------------------------------------------------------------------ *)
(* Observations                                                         *)
(* ------------------------------------------------------------------ *)

let observations =
  lazy
    (let yolo_tus = Corpus.Yolo_src.parse_all () in
     let measured = List.map fst Corpus.Yolo_src.measured_files in
     let yolo = Cudasim.Runner.run ~entry:"main" ~measured yolo_tus in
     let st_tus = Corpus.Stencil_src.parse_all () in
     let st_measured = List.map fst Corpus.Stencil_src.measured_files in
     let stencil = Cudasim.Runner.run ~entry:"main" ~measured:st_measured st_tus in
     let ratios = List.map (fun (l, r) -> (l, r)) (Gpuperf.Suites.gemm_comparison ~device:Gpuperf.Device.titan_v) in
     Iso26262.Observations.of_metrics (Lazy.force metrics)
       ~yolo_coverage:yolo.Cudasim.Runner.files
       ~stencil_coverage:stencil.Cudasim.Runner.files ~open_vs_closed:ratios)

let test_observations_complete () =
  let obs = Lazy.force observations in
  Alcotest.(check int) "fourteen observations" 14 (List.length obs);
  List.iteri
    (fun i (o : Iso26262.Observations.t) ->
      Alcotest.(check int) "numbered in order" (i + 1) o.Iso26262.Observations.number)
    obs

let test_observations_all_hold () =
  Alcotest.(check bool) "every observation reproduced" true
    (Iso26262.Observations.all_hold (Lazy.force observations))

(* ------------------------------------------------------------------ *)
(* Report rendering                                                     *)
(* ------------------------------------------------------------------ *)

let test_render_findings_table () =
  let s =
    Iso26262.Report.render_findings ~title:"T" (Lazy.force coding)
  in
  Alcotest.(check bool) "contains verdicts" true (Util.Strutil.contains_sub ~sub:"FAIL" s);
  Alcotest.(check bool) "contains ++ cells" true (Util.Strutil.contains_sub ~sub:"++" s);
  Alcotest.(check bool) "contains topic" true
    (Util.Strutil.contains_sub ~sub:"Enforcement of low complexity" s)

let test_render_compliance () =
  let s = Iso26262.Report.render_compliance (Lazy.force coding) in
  Alcotest.(check bool) "mentions every ASIL" true
    (List.for_all
       (fun a -> Util.Strutil.contains_sub ~sub:("ASIL-" ^ Iso26262.Asil.to_string a) s)
       Iso26262.Asil.all)

let test_render_module_summaries () =
  let s = Iso26262.Report.render_module_summaries (Lazy.force metrics) in
  Alcotest.(check bool) "lists perception" true
    (Util.Strutil.contains_sub ~sub:"perception" s);
  Alcotest.(check bool) "has CC columns" true (Util.Strutil.contains_sub ~sub:"CC>10" s)

let () =
  Alcotest.run "iso26262"
    [
      ( "asil",
        [
          Alcotest.test_case "string roundtrip" `Quick test_asil_strings;
          Alcotest.test_case "matrix lookup" `Quick test_asil_matrix_lookup;
        ] );
      ( "guidelines",
        [
          Alcotest.test_case "table sizes" `Quick test_guideline_table_sizes;
          Alcotest.test_case "find" `Quick test_guideline_find;
          Alcotest.test_case "paper matrix spot checks" `Quick
            test_guideline_paper_matrix_spotchecks;
        ] );
      ( "project-metrics",
        [
          Alcotest.test_case "module list" `Quick test_metrics_module_list;
          Alcotest.test_case "consistency" `Quick test_metrics_consistency;
          Alcotest.test_case "cuda census" `Quick test_metrics_cuda_only_in_perception;
        ] );
      ( "assessment",
        [
          Alcotest.test_case "coding verdicts" `Quick test_coding_verdict_pattern;
          Alcotest.test_case "architecture verdicts" `Quick test_architecture_verdict_pattern;
          Alcotest.test_case "unit verdicts" `Quick test_unit_verdict_pattern;
          Alcotest.test_case "evidence present" `Quick test_every_finding_has_evidence;
          Alcotest.test_case "compliance per ASIL" `Quick test_compliance_at_asil;
          Alcotest.test_case "thresholds matter" `Quick test_thresholds_change_verdicts;
        ] );
      ( "observations",
        [
          Alcotest.test_case "complete" `Quick test_observations_complete;
          Alcotest.test_case "all hold" `Quick test_observations_all_hold;
        ] );
      ( "report",
        [
          Alcotest.test_case "findings table" `Quick test_render_findings_table;
          Alcotest.test_case "compliance" `Quick test_render_compliance;
          Alcotest.test_case "module summaries" `Quick test_render_module_summaries;
        ] );
    ]
