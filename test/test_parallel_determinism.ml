(* Differential sequential-vs-parallel harness.

   The concurrency policy says parallelism is configuration, never
   semantics: --jobs 1 is the oracle (the exact historical sequential
   code path) and every other worker count must reproduce its output
   bit for bit.  This test runs the table1 analysis pipeline — corpus
   generation -> parse -> MISRA -> dataflow — once per jobs value and
   compares:

   - the full MISRA violation list (rule, file, line, column, message),
   - the per-function dataflow summaries and their totals,
   - the merged telemetry counter list (parse, misra and dataflow keys),

   all of which must be *identical*, not merely equivalent.

   The "coverage" group applies the same discipline to the scenario-
   parallel coverage engine: the full scenario set (real scenarios +
   fault injection + testgen probes, over one shared parse) replayed at
   jobs=2/4 must merge to the byte-identical collector state, per-file
   percentages, MC/DC satisfied-pair counts and per-scenario results
   that jobs=1 produces. *)

type run_result = {
  violations : (string * string * int * int * string) list;
  df_summaries : (string * int * int * int * int * int * int) list;
  counters : (string * int) list;
}

(* The whole pipeline under [jobs] worker domains, telemetry on, with a
   fresh sink so counter attribution can't leak between runs. *)
let run_pipeline ~jobs =
  Util.Pool.set_default_jobs jobs;
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.set_enabled false)
  @@ fun () ->
  let project =
    Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small
  in
  let parsed = Cfront.Project.parse project in
  let report = Misra.Registry.run_project parsed in
  let summaries =
    List.map Dataflow.Analyses.summary_of_facts
      (Dataflow.Analyses.facts_of_functions (Cfront.Project.all_functions parsed))
  in
  {
    violations =
      List.concat_map
        (fun ((r : Misra.Rule.t), vs) ->
          List.map
            (fun (v : Misra.Rule.violation) ->
              ( r.Misra.Rule.id, v.Misra.Rule.loc.Cfront.Loc.file,
                v.Misra.Rule.loc.Cfront.Loc.line, v.Misra.Rule.loc.Cfront.Loc.col,
                v.Misra.Rule.message ))
            vs)
        report.Misra.Registry.per_rule;
    df_summaries =
      List.map
        (fun (s : Dataflow.Analyses.func_summary) ->
          ( s.Dataflow.Analyses.s_function, s.Dataflow.Analyses.s_blocks,
            s.Dataflow.Analyses.s_edges, s.Dataflow.Analyses.s_unreachable,
            s.Dataflow.Analyses.s_dead_stores, s.Dataflow.Analyses.s_uninit_reads,
            s.Dataflow.Analyses.s_const_conditions ))
        summaries;
    counters = Telemetry.counters ();
  }

let violation_t = Alcotest.(list (pair string (pair string (pair int (pair int string)))))

let nest (r, f, l, c, m) = (r, (f, (l, (c, m))))

let restore_jobs = Util.Pool.default_jobs ()

let check_jobs_equal ~oracle ~jobs =
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  let par = run_pipeline ~jobs in
  Alcotest.(check violation_t)
    (Printf.sprintf "violations identical at jobs=%d" jobs)
    (List.map nest oracle.violations)
    (List.map nest par.violations);
  Alcotest.(check (list (pair string (pair int (pair int (pair int (pair int (pair int int))))))))
    (Printf.sprintf "dataflow summaries identical at jobs=%d" jobs)
    (List.map (fun (n, a, b, c, d, e, f) -> (n, (a, (b, (c, (d, (e, f)))))) ) oracle.df_summaries)
    (List.map (fun (n, a, b, c, d, e, f) -> (n, (a, (b, (c, (d, (e, f)))))) ) par.df_summaries)

let check_counters_equal ~oracle ~jobs =
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  let par = run_pipeline ~jobs in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "merged counters identical at jobs=%d" jobs)
    oracle.counters par.counters;
  (* the counters we specifically rely on downstream *)
  List.iter
    (fun key ->
      Alcotest.(check int)
        (Printf.sprintf "%s identical at jobs=%d" key jobs)
        (List.assoc key oracle.counters)
        (List.assoc key par.counters))
    [ "parse.files"; "parse.ast_nodes"; "misra.violations"; "dataflow.solves";
      "dataflow.transfers"; "dataflow.functions" ]

(* One oracle run shared by the cases (recomputed lazily so alcotest's
   listing mode stays cheap). *)
let oracle = lazy (run_pipeline ~jobs:1)

(* ------------------------------------------------------------------ *)
(* Coverage differential                                                *)
(*                                                                      *)
(* The scenario-parallel coverage engine must be exact, not just         *)
(* statistically close: the full scenario set (real scenarios, fault     *)
(* injection, testgen probes) replayed at jobs=2/4 must merge to the     *)
(* byte-identical collector state the jobs=1 run produces — same         *)
(* per-file hit sets, same statement percentages, same MC/DC             *)
(* satisfied-pair counts, same per-scenario results.                     *)
(*                                                                      *)
(* The set is built ONCE and shared by every jobs value, exactly as      *)
(* production shares it (Corpus.Scenario_set).  Ids depend only on each  *)
(* unit's path and content, so a second parse would give the same keys;  *)
(* sharing just avoids rebuilding the set.                               *)
(* ------------------------------------------------------------------ *)

let coverage_set =
  lazy
    (Util.Pool.set_default_jobs 1;
     Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore_jobs)
       Corpus.Scenario_set.full)

type coverage_result = {
  c_fingerprint : string;
  c_files : string list;  (** one canonical line per measured file *)
  c_results : (string * string) list;  (** scenario/entry -> outcome *)
}

let run_coverage ~jobs =
  let set = Lazy.force coverage_set in
  Util.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  let outcomes =
    Coverage.Scenario.run_all set.Corpus.Scenario_set.scenarios
  in
  let merged = Coverage.Scenario.merged_collector outcomes in
  let files =
    Coverage.Scenario.score merged ~measured:set.Corpus.Scenario_set.measured
      set.Corpus.Scenario_set.tus
  in
  {
    c_fingerprint = Coverage.Collector.fingerprint merged;
    c_files =
      List.map
        (fun (f : Coverage.Collector.file_coverage) ->
          let pairs_hit, pairs_total =
            List.fold_left
              (fun (h, t) (fc : Coverage.Collector.func_coverage) ->
                ( h + fc.Coverage.Collector.conditions_hit,
                  t + fc.Coverage.Collector.conditions_total ))
              (0, 0) f.Coverage.Collector.functions
          in
          Printf.sprintf "%s stmt=%.6f branch=%.6f mcdc=%.6f pairs=%d/%d"
            f.Coverage.Collector.file f.Coverage.Collector.stmt_pct
            f.Coverage.Collector.branch_pct f.Coverage.Collector.mcdc_pct
            pairs_hit pairs_total)
        files;
    c_results =
      List.concat_map
        (fun (o : Coverage.Scenario.outcome) ->
          List.map
            (fun (entry, r) ->
              ( o.Coverage.Scenario.o_name ^ "/" ^ entry,
                match r with
                | Ok v -> "ok " ^ Coverage.Value.to_string v
                | Error e -> "error " ^ e ))
            o.Coverage.Scenario.o_results)
        outcomes;
  }

let coverage_oracle = lazy (run_coverage ~jobs:1)

let check_coverage_equal ~jobs =
  let oracle = Lazy.force coverage_oracle in
  let par = run_coverage ~jobs in
  Alcotest.(check string)
    (Printf.sprintf "merged collector fingerprint identical at jobs=%d" jobs)
    oracle.c_fingerprint par.c_fingerprint;
  Alcotest.(check (list string))
    (Printf.sprintf "per-file coverage identical at jobs=%d" jobs)
    oracle.c_files par.c_files;
  Alcotest.(check (list (pair string string)))
    (Printf.sprintf "per-scenario results identical at jobs=%d" jobs)
    oracle.c_results par.c_results

let test_coverage_jobs2 () = check_coverage_equal ~jobs:2
let test_coverage_jobs4 () = check_coverage_equal ~jobs:4

let test_coverage_oracle_stable () =
  let a = Lazy.force coverage_oracle in
  let b = run_coverage ~jobs:1 in
  Alcotest.(check string) "sequential fingerprints agree" a.c_fingerprint
    b.c_fingerprint;
  Alcotest.(check (list string)) "sequential file lines agree" a.c_files
    b.c_files;
  Alcotest.(check bool) "scenario set nonempty" true (a.c_results <> []);
  (* the set really contains all three scenario families *)
  let set = Lazy.force coverage_set in
  let has prefix =
    List.exists
      (fun (sc : Coverage.Scenario.t) ->
        let n = sc.Coverage.Scenario.sc_name in
        String.length n >= String.length prefix
        && String.sub n 0 (String.length prefix) = prefix)
      set.Corpus.Scenario_set.scenarios
  in
  Alcotest.(check bool) "real scenarios present" true (has "yolo-real");
  Alcotest.(check bool) "fault scenarios present" true (has "detections-");
  Alcotest.(check bool) "testgen probes present" true (has "testgen-probes")

(* ------------------------------------------------------------------ *)
(* Corpus generation differential                                       *)
(*                                                                      *)
(* Module generation fans out over the pool (one task per module, each   *)
(* with a private SplitMix64 stream and name-id base), so the generated  *)
(* sources — every path and every byte of content — must be identical    *)
(* at every jobs value, and across repeated runs at the same value.      *)
(* ------------------------------------------------------------------ *)

let generate_sources ~jobs =
  Util.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  List.map
    (fun (f : Cfront.Project.source_file) ->
      (f.Cfront.Project.path, f.Cfront.Project.content))
    (Cfront.Project.all_files
       (Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small))

let corpus_oracle = lazy (generate_sources ~jobs:1)

let check_corpus_equal ~jobs =
  let oracle = Lazy.force corpus_oracle in
  let par = generate_sources ~jobs in
  Alcotest.(check (list (pair string string)))
    (Printf.sprintf "generated sources byte-identical at jobs=%d" jobs)
    oracle par

let test_corpus_gen_stable () =
  let a = Lazy.force corpus_oracle in
  let b = generate_sources ~jobs:1 in
  Alcotest.(check (list (pair string string))) "sequential runs agree" a b;
  Alcotest.(check bool) "corpus nonempty" true (a <> [])

let test_corpus_gen_jobs2 () = check_corpus_equal ~jobs:2
let test_corpus_gen_jobs8 () = check_corpus_equal ~jobs:8

let test_reports_jobs4 () =
  check_jobs_equal ~oracle:(Lazy.force oracle) ~jobs:4

let test_counters_jobs4 () =
  check_counters_equal ~oracle:(Lazy.force oracle) ~jobs:4

let test_counters_jobs2 () =
  check_counters_equal ~oracle:(Lazy.force oracle) ~jobs:2

(* The oracle is itself reproducible: two sequential runs agree, which
   pins down that any jobs>1 mismatch really is a parallelism bug. *)
let test_oracle_stable () =
  let a = Lazy.force oracle in
  let b = run_pipeline ~jobs:1 in
  Util.Pool.set_default_jobs restore_jobs;
  Alcotest.(check violation_t) "sequential runs agree"
    (List.map nest a.violations) (List.map nest b.violations);
  Alcotest.(check (list (pair string int))) "sequential counters agree"
    a.counters b.counters;
  Alcotest.(check bool) "violations nonempty" true (a.violations <> [])

(* ------------------------------------------------------------------ *)
(* Audit work counts                                                    *)
(*                                                                      *)
(* One cold, no-cache audit does each analysis once per function: the   *)
(* dataflow layer lowers every defined function and interproc lowers it *)
(* once more (shared by its direct-facts and cross-call phases), and    *)
(* interproc runs once.  MISRA and the metric walk only read those      *)
(* results, at every jobs value.                                        *)
(* ------------------------------------------------------------------ *)

let audit_counters ~jobs =
  Util.Pool.set_default_jobs jobs;
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.set_enabled false;
      Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  ignore (Iso26262.Audit.run ~seed:7 ~specs:Corpus.Apollo_profile.small ());
  Telemetry.counters ()

let audit_oracle = lazy (audit_counters ~jobs:1)

let with_prefix prefix counters =
  List.filter
    (fun (k, _) ->
      String.length k >= String.length prefix
      && String.sub k 0 (String.length prefix) = prefix)
    counters

let check_audit_work ~jobs =
  let oracle = Lazy.force audit_oracle in
  let counters = if jobs = 1 then oracle else audit_counters ~jobs in
  let get k = Option.value ~default:0 (List.assoc_opt k counters) in
  let functions = get "dataflow.functions" in
  Alcotest.(check bool) (Printf.sprintf "functions solved at jobs=%d" jobs) true
    (functions > 0);
  Alcotest.(check int)
    (Printf.sprintf "interproc ran once at jobs=%d" jobs)
    (get "metrics.cc_functions") (get "interproc.functions");
  Alcotest.(check bool)
    (Printf.sprintf "dataflow.cfgs %d <= 2 x %d functions at jobs=%d"
       (get "dataflow.cfgs") functions jobs)
    true
    (get "dataflow.cfgs" <= 2 * functions);
  List.iter
    (fun prefix ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s* identical at jobs=%d" prefix jobs)
        (with_prefix prefix oracle) (with_prefix prefix counters))
    [ "misra.violations."; "provenance.findings." ]

let test_audit_work_jobs1 () = check_audit_work ~jobs:1
let test_audit_work_jobs2 () = check_audit_work ~jobs:2
let test_audit_work_jobs8 () = check_audit_work ~jobs:8

let () =
  Alcotest.run "parallel-determinism"
    [
      ( "differential",
        [
          Alcotest.test_case "oracle is stable" `Slow test_oracle_stable;
          Alcotest.test_case "violation+dataflow reports at jobs=4" `Slow
            test_reports_jobs4;
          Alcotest.test_case "merged counters at jobs=4" `Slow
            test_counters_jobs4;
          Alcotest.test_case "merged counters at jobs=2" `Slow
            test_counters_jobs2;
        ] );
      ( "audit-work",
        [
          Alcotest.test_case "one solve per function at jobs=1" `Slow
            test_audit_work_jobs1;
          Alcotest.test_case "one solve per function at jobs=2" `Slow
            test_audit_work_jobs2;
          Alcotest.test_case "one solve per function at jobs=8" `Slow
            test_audit_work_jobs8;
        ] );
      ( "corpus-gen",
        [
          Alcotest.test_case "generator oracle is stable" `Slow
            test_corpus_gen_stable;
          Alcotest.test_case "generated sources at jobs=2" `Slow
            test_corpus_gen_jobs2;
          Alcotest.test_case "generated sources at jobs=8" `Slow
            test_corpus_gen_jobs8;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "coverage oracle is stable" `Slow
            test_coverage_oracle_stable;
          Alcotest.test_case "merged coverage at jobs=2" `Slow
            test_coverage_jobs2;
          Alcotest.test_case "merged coverage at jobs=4" `Slow
            test_coverage_jobs4;
        ] );
    ]
