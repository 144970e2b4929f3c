(** adcheck — ISO 26262 software-guideline assessment toolkit.

    Subcommands mirror the workflow of the paper:
    - [audit]      full assessment of the Apollo-profile corpus
    - [complexity] Figure 3 per-module complexity analysis
    - [misra]      MISRA C:2012-subset + CUDA rule checking
    - [dataflow]   flow-sensitive per-module counts (CFG + fixpoint)
    - [coverage]   Figure 5/6 coverage experiments
    - [gpuperf]    Figure 7/8 open- vs closed-source library comparison
    - [corpus]     write the generated corpus to disk
    - [check]      analyze C/C++/CUDA files from disk
    - [callgraph]  resolution-accounted call graph (+ Graphviz DOT)
    - [interproc]  whole-program summaries: SCCs, purity, coupling, depth
    - [explain]    render one finding's provenance witness chain *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared options                                                       *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  let doc = "Generator seed; every figure is deterministic in the seed." in
  Arg.(value & opt int 2019 & info [ "seed" ] ~docv:"SEED" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON of the run to $(docv) (open it in \
     chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc = "Print telemetry summary tables (spans, counters, hot functions) after the run." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let verbose_arg =
  let doc = "Log progress to stderr (same as ADCHECK_LOG=info; ADCHECK_LOG=debug goes further)." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel analysis stages (per-file parsing, \
     per-rule MISRA checking, per-function dataflow solving).  $(b,1) runs \
     the exact sequential code path — the oracle the differential tests \
     compare against; reports and telemetry counters are identical at every \
     value.  Overrides the $(b,ADCHECK_JOBS) environment variable."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let metrics_arg =
  let doc =
    "Write the flight-recorder metrics of the run (counters, latency \
     histograms, per-phase GC deltas, pool utilization) to $(docv) as \
     adcheck-metrics/1 JSON — the record $(b,adcheck bench-diff) compares."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let evidence_arg =
  let doc =
    "Write the provenance journal of the run — every finding with its \
     stable id and witness chain — to $(docv) as adcheck-evidence/1 JSONL.  \
     Ids resolve with $(b,adcheck explain); the journal is byte-identical \
     at every --jobs value."
  in
  Arg.(value & opt (some string) None & info [ "evidence" ] ~docv:"FILE" ~doc)

let cache_arg =
  let doc =
    "Persistent content-addressed artifact cache in $(docv) (created if \
     missing).  Analysis artifacts — per-file type names and parse trees, \
     per-file dataflow fixpoints, the whole-tree interproc summary and \
     core metric record, per-rule MISRA results, compiled bytecode, \
     coverage-phase outcomes — are served warm when their content keys \
     match (a warm run lexes no file and re-runs none of them) and \
     recomputed when the content they fold changes; artifacts of files \
     that left the tree are removed.  Off by default: the cold jobs=1 run \
     stays the oracle, and warm runs are byte-identical to it (reports, \
     evidence journals, finding ids).  Hit/miss/store/eviction counters \
     flow through the $(b,cache.*) flight-recorder counters \
     ($(b,--metrics))."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

(* An unwritable output path is a user error, not a crash: one line on
   stderr, exit 1.  The Sys_error message already names the path. *)
let try_write what f =
  try f ()
  with Sys_error e ->
    Printf.eprintf "adcheck: cannot write %s: %s\n" what e;
    exit 1

(** Bundle of the global instrumentation/concurrency flags, shared by
    every subcommand. *)
let telemetry_term =
  Term.(
    const (fun trace stats metrics evidence verbose jobs cache ->
        (trace, stats, metrics, evidence, verbose, jobs, cache))
    $ trace_arg $ stats_arg $ metrics_arg $ evidence_arg $ verbose_arg
    $ jobs_arg $ cache_arg)

(** Run [f] under a per-subcommand telemetry span; afterwards write the
    Chrome trace, the metrics record, the evidence journal and/or print
    the stats tables when requested.  The exporters run even if [f]
    raises, so a failed run still leaves a trace to look at. *)
let with_telemetry ~cmd (trace, stats, metrics, evidence, verbose, jobs, cache_dir)
    f =
  if verbose && Util.Log.level () = Util.Log.Warn then
    Util.Log.set_level Util.Log.Info;
  Option.iter Util.Pool.set_default_jobs jobs;
  if trace <> None || metrics <> None || stats then Telemetry.set_enabled true;
  (match cache_dir with
   | Some d ->
     (try Cache.set_global (Some (Cache.open_dir d))
      with Sys_error e ->
        Printf.eprintf "adcheck: cannot open cache directory: %s\n" e;
        exit 1)
   | None -> ());
  let finish () =
    (match (Cache.global (), cache_dir) with
     | Some c, Some _ ->
       let s = Cache.stats c in
       Util.Log.info
         "cache %s: %d hit(s), %d miss(es), %d store(s), %d invalidated, %d \
          corrupt"
         (Cache.dir c) s.Cache.hits s.Cache.misses s.Cache.stores
         s.Cache.invalidated s.Cache.corrupt
     | _ -> ());
    (match trace with
     | Some path ->
       try_write "Chrome trace" (fun () -> Telemetry.write_chrome_trace ~path);
       Util.Log.info "wrote Chrome trace to %s" path
     | None -> ());
    (match metrics with
     | Some path ->
       try_write "metrics" (fun () -> Telemetry.write_metrics ~path ());
       Util.Log.info "wrote metrics to %s" path
     | None -> ());
    (match evidence with
     | Some path ->
       try_write "evidence journal" (fun () ->
           Provenance.write_journal ~path ());
       Util.Log.info "wrote evidence journal to %s" path
     | None -> ());
    if stats then print_string (Telemetry.render_stats ())
  in
  Util.Log.debug "starting %s" cmd;
  Fun.protect ~finally:finish (fun () ->
      Telemetry.with_span ~cat:"adcheck" ("adcheck." ^ cmd) f)

let scale_arg =
  let doc = "Corpus scale: $(b,full) (228k LOC, as the paper) or $(b,small) (~18k LOC, fast)." in
  Arg.(value & opt (enum [ ("full", `Full); ("small", `Small) ]) `Full
       & info [ "scale" ] ~docv:"SCALE" ~doc)

let specs_of = function
  | `Full -> Corpus.Apollo_profile.full
  | `Small -> Corpus.Apollo_profile.small

let gpu_ratios () =
  let d = Gpuperf.Device.titan_v in
  List.map (fun (l, r) -> (l, r)) (Gpuperf.Suites.gemm_comparison ~device:d)
  @ List.map (fun (l, _, r) -> (l, r)) (Gpuperf.Suites.conv_comparison ~device:d)

(* ------------------------------------------------------------------ *)
(* audit                                                                *)
(* ------------------------------------------------------------------ *)

let audit_cmd =
  let run seed scale tele =
    with_telemetry ~cmd:"audit" tele @@ fun () ->
    Util.Log.info "auditing the Apollo-profile corpus (seed %d)" seed;
    let audit =
      Iso26262.Audit.run ~seed ~specs:(specs_of scale)
        ~open_vs_closed:(gpu_ratios ()) ()
    in
    print_string (Iso26262.Audit.render audit)
  in
  let doc = "Run the complete ISO 26262 Part 6 assessment (Tables 1-3, Figures 3-6, Observations)." in
  Cmd.v (Cmd.info "audit" ~doc) Term.(const run $ seed_arg $ scale_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* complexity                                                           *)
(* ------------------------------------------------------------------ *)

let format_arg =
  let doc = "Output format: $(b,text), $(b,md) (GitHub markdown) or $(b,csv)." in
  Arg.(value
       & opt (enum [ ("text", Util.Table.Text); ("md", Util.Table.Markdown);
                     ("csv", Util.Table.Csv) ])
           Util.Table.Text
       & info [ "format" ] ~docv:"FORMAT" ~doc)

let complexity_cmd =
  let run seed scale format tele =
    with_telemetry ~cmd:"complexity" tele @@ fun () ->
    let project = Corpus.Generator.generate ~seed (specs_of scale) in
    let parsed = Cfront.Project.parse project in
    let metrics = Iso26262.Project_metrics.of_parsed parsed in
    let tbl =
      List.fold_left
        (fun tbl (mm : Iso26262.Project_metrics.module_metrics) ->
          let c = mm.Iso26262.Project_metrics.complexity in
          Util.Table.add_row tbl
            [ mm.Iso26262.Project_metrics.modname;
              string_of_int c.Metrics.Complexity.loc;
              string_of_int c.Metrics.Complexity.n_functions;
              string_of_int c.Metrics.Complexity.over_10;
              string_of_int c.Metrics.Complexity.over_20;
              string_of_int c.Metrics.Complexity.over_50;
              string_of_int c.Metrics.Complexity.cc_max ])
        (Util.Table.make ~title:"Figure 3: complexity per module"
           ~header:[ "module"; "LOC"; "functions"; "CC>10"; "CC>20"; "CC>50"; "CC max" ]
           ~aligns:[ Util.Table.Left; Util.Table.Right; Util.Table.Right;
                     Util.Table.Right; Util.Table.Right; Util.Table.Right;
                     Util.Table.Right ]
           ())
        metrics.Iso26262.Project_metrics.modules
    in
    print_string (Util.Table.render_as format tbl)
  in
  let doc = "Per-module cyclomatic complexity, LOC and function counts (Figure 3)." in
  Cmd.v (Cmd.info "complexity" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ format_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* misra                                                                *)
(* ------------------------------------------------------------------ *)

let misra_cmd =
  let rule_arg =
    let doc = "Show individual violations of $(docv) (e.g. 15.1, CUDA-2)." in
    Arg.(value & opt (some string) None & info [ "rule" ] ~docv:"RULE" ~doc)
  in
  let limit_arg =
    let doc = "Maximum violations to list with --rule." in
    Arg.(value & opt int 20 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let run seed scale rule limit tele =
    with_telemetry ~cmd:"misra" tele @@ fun () ->
    let project = Corpus.Generator.generate ~seed (specs_of scale) in
    let parsed = Cfront.Project.parse project in
    let report = Misra.Registry.run_project parsed in
    match rule with
    | None ->
      print_string (Misra.Registry.render_summary report);
      Printf.printf "rule compliance: %.0f%% (%d of %d rules clean)\n"
        (100.0 *. Misra.Registry.rule_compliance report)
        (report.Misra.Registry.rules_checked - report.Misra.Registry.rules_violated)
        report.Misra.Registry.rules_checked
    | Some id -> (
        match
          List.find_opt
            (fun ((r : Misra.Rule.t), _) -> r.Misra.Rule.id = id)
            report.Misra.Registry.per_rule
        with
        | None -> Util.Log.error "unknown rule %s" id
        | Some (r, vs) ->
          Printf.printf "%s (%s, %s): %d violations\n" r.Misra.Rule.id
            r.Misra.Rule.title
            (Misra.Rule.category_name r.Misra.Rule.category)
            (List.length vs);
          List.iteri
            (fun i (v : Misra.Rule.violation) ->
              if i < limit then
                Printf.printf "  %s: %s\n"
                  (Cfront.Loc.to_string v.Misra.Rule.loc)
                  v.Misra.Rule.message)
            vs)
  in
  let doc = "Check the corpus against the MISRA C:2012 subset and the CUDA extension rules." in
  Cmd.v (Cmd.info "misra" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ rule_arg $ limit_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* dataflow                                                             *)
(* ------------------------------------------------------------------ *)

let dataflow_cmd =
  let function_arg =
    let doc = "List individual findings for functions whose qualified name contains $(docv)." in
    Arg.(value & opt (some string) None & info [ "function" ] ~docv:"NAME" ~doc)
  in
  let run seed scale format fname tele =
    with_telemetry ~cmd:"dataflow" tele @@ fun () ->
    let project = Corpus.Generator.generate ~seed (specs_of scale) in
    let parsed = Cfront.Project.parse project in
    match fname with
    | None ->
      let metrics = Iso26262.Project_metrics.of_parsed parsed in
      print_string
        (Util.Table.render_as format (Iso26262.Report.dataflow_table metrics))
    | Some needle ->
      let matched = ref 0 in
      List.iter
        (fun fn ->
          let name = Cfront.Ast.qualified_name fn in
          let contains hay =
            let n = String.length needle and h = String.length hay in
            let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
            n = 0 || at 0
          in
          match fn.Cfront.Ast.f_body with
          | Some _ when contains name ->
            incr matched;
            let x = Dataflow.Analyses.facts_of_func fn in
            Printf.printf "== %s: %d blocks, %d edges\n" name
              x.Dataflow.Analyses.x_blocks x.Dataflow.Analyses.x_edges;
            List.iter
              (fun loc ->
                Printf.printf "  unreachable: %s\n" (Cfront.Loc.to_string loc))
              x.Dataflow.Analyses.x_unreachable;
            List.iter
              (fun (d : Dataflow.Analyses.dead_store) ->
                Printf.printf "  dead store:  %s %s\n"
                  (Cfront.Loc.to_string d.Dataflow.Analyses.d_loc)
                  d.Dataflow.Analyses.d_var)
              x.Dataflow.Analyses.x_dead_stores;
            List.iter
              (fun (u : Dataflow.Analyses.uninit_finding) ->
                Printf.printf "  uninit read: %s %s\n"
                  (Cfront.Loc.to_string u.Dataflow.Analyses.u_use_loc)
                  u.Dataflow.Analyses.u_var)
              x.Dataflow.Analyses.x_uninit_reads;
            List.iter
              (fun (c : Dataflow.Analyses.const_cond) ->
                Printf.printf "  const cond:  %s always %b\n"
                  (Cfront.Loc.to_string c.Dataflow.Analyses.c_loc)
                  c.Dataflow.Analyses.c_value)
              x.Dataflow.Analyses.x_const_conditions
          | _ -> ())
        (Cfront.Project.all_functions parsed);
      if !matched = 0 then Util.Log.error "no defined function matches %s" needle
  in
  let doc =
    "Flow-sensitive analysis over the corpus: CFG sizes, unreachable regions, \
     dead stores, uninitialized reads and propagated constant conditions per module."
  in
  Cmd.v (Cmd.info "dataflow" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ format_arg $ function_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* coverage                                                             *)
(* ------------------------------------------------------------------ *)

let coverage_cmd =
  let subject_arg =
    let doc =
      "Coverage subject: $(b,yolo) (Figure 5), $(b,stencil) (Figure 6) or \
       $(b,combined) (the full scenario set — real-scenario tests, fault \
       injection and testgen probes — run scenario-parallel across the \
       worker pool and merged; merged figures are identical at every \
       --jobs value)."
    in
    Arg.(value
         & opt (enum [ ("yolo", `Yolo); ("stencil", `Stencil);
                       ("combined", `Combined) ])
             `Yolo
         & info [ "subject" ] ~docv:"SUBJECT" ~doc)
  in
  let run subject tele =
    with_telemetry ~cmd:"coverage" tele @@ fun () ->
    match subject with
    | `Combined ->
      let set = Corpus.Scenario_set.full () in
      let outcomes =
        Coverage.Scenario.run_all set.Corpus.Scenario_set.scenarios
      in
      List.iter
        (fun (name, entry, err) ->
          Util.Log.info "scenario %s/%s faulted: %s" name entry err)
        (Coverage.Scenario.failures outcomes);
      let merged = Coverage.Scenario.merged_collector outcomes in
      let files =
        Coverage.Scenario.score merged
          ~measured:set.Corpus.Scenario_set.measured
          set.Corpus.Scenario_set.tus
      in
      Printf.printf "scenarios run: %d\n" (List.length outcomes);
      print_string
        (Iso26262.Report.render_coverage
           ~title:
             "combined coverage: real scenarios + fault injection + testgen probes"
           files)
    | (`Yolo | `Stencil) as subject ->
      let tus, measured, entry, title =
        match subject with
        | `Yolo ->
          (Corpus.Yolo_src.parse_all (),
           List.map fst Corpus.Yolo_src.measured_files,
           Corpus.Yolo_src.entry,
           "object detection (YOLO) coverage under real-scenario tests")
        | `Stencil ->
          (Corpus.Stencil_src.parse_all (),
           List.map fst Corpus.Stencil_src.measured_files,
           Corpus.Stencil_src.entry,
           "CUDA stencils executed on the CPU (cuda4cpu)")
      in
      let result = Cudasim.Runner.run ~entry ~measured tus in
      (match result.Cudasim.Runner.exit_value with
       | Ok _ -> ()
       | Error e -> Util.Log.error "execution failed: %s" e);
      print_string result.Cudasim.Runner.output;
      print_string (Iso26262.Report.render_coverage ~title result.Cudasim.Runner.files)
  in
  let doc = "Run the dynamic coverage experiments (statement, branch, MC/DC)." in
  Cmd.v (Cmd.info "coverage" ~doc)
    Term.(const run $ subject_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* gpuperf                                                              *)
(* ------------------------------------------------------------------ *)

let gpuperf_cmd =
  let experiment_arg =
    let doc = "Which comparison: $(b,fig7), $(b,fig8a) or $(b,fig8b)." in
    Arg.(value & opt (enum [ ("fig7", `F7); ("fig8a", `F8a); ("fig8b", `F8b) ]) `F7
         & info [ "experiment" ] ~docv:"EXP" ~doc)
  in
  let gpu_arg =
    let doc = "GPU model: $(b,titanv), $(b,1080ti) or $(b,px2)." in
    Arg.(value
         & opt (enum [ ("titanv", Gpuperf.Device.titan_v);
                       ("1080ti", Gpuperf.Device.gtx_1080ti);
                       ("px2", Gpuperf.Device.drive_px2_gpu) ])
             Gpuperf.Device.titan_v
         & info [ "gpu" ] ~docv:"GPU" ~doc)
  in
  let run experiment gpu tele =
    with_telemetry ~cmd:"gpuperf" tele @@ fun () ->
    match experiment with
    | `F7 ->
      List.iter
        (fun (r : Gpuperf.Yolo_bench.row) ->
          Printf.printf "%-10s %-7s %10.2f ms %8.1f fps %8.2fx  (%s)\n"
            r.Gpuperf.Yolo_bench.impl
            (if r.Gpuperf.Yolo_bench.closed_source then "closed" else "open")
            r.Gpuperf.Yolo_bench.total_ms r.Gpuperf.Yolo_bench.fps
            r.Gpuperf.Yolo_bench.vs_baseline r.Gpuperf.Yolo_bench.device_name)
        (Gpuperf.Yolo_bench.run ~gpu ~cpu:Gpuperf.Device.xeon_e5 ())
    | `F8a ->
      List.iter
        (fun (label, ratio) -> Printf.printf "%-40s %.2f\n" label ratio)
        (Gpuperf.Suites.gemm_comparison ~device:gpu)
    | `F8b ->
      List.iter
        (fun (label, domain, ratio) ->
          Printf.printf "%-24s %-14s %.2f\n" label domain ratio)
        (Gpuperf.Suites.conv_comparison ~device:gpu)
  in
  let doc = "Open- vs closed-source GPU library performance model (Figures 7, 8a, 8b)." in
  Cmd.v (Cmd.info "gpuperf" ~doc)
    Term.(const run $ experiment_arg $ gpu_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* corpus                                                               *)
(* ------------------------------------------------------------------ *)

let corpus_cmd =
  let out_arg =
    let doc = "Directory to write the generated sources into." in
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR" ~doc)
  in
  let run seed scale out tele =
    with_telemetry ~cmd:"corpus" tele @@ fun () ->
    let project = Corpus.Generator.generate ~seed (specs_of scale) in
    let files = Cfront.Project.all_files project in
    List.iter
      (fun (f : Cfront.Project.source_file) ->
        let path = Filename.concat out f.Cfront.Project.path in
        let rec mkdirs d =
          if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
            mkdirs (Filename.dirname d);
            Sys.mkdir d 0o755
          end
        in
        mkdirs (Filename.dirname path);
        let oc = open_out path in
        output_string oc f.Cfront.Project.content;
        close_out oc)
      files;
    Printf.printf "wrote %d files under %s\n" (List.length files) out
  in
  let doc = "Write the generated Apollo-profile corpus to disk for inspection or external tools." in
  Cmd.v (Cmd.info "corpus" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ out_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* check: analyze user-provided files                                   *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let files_arg =
    let doc = "C/C++/CUDA source files to analyze." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let run paths tele =
    with_telemetry ~cmd:"check" tele @@ fun () ->
    let read path =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let sources =
      List.map
        (fun path ->
          { Cfront.Project.path; modname = "user"; header = false;
            content = read path })
        paths
    in
    let project =
      Cfront.Project.make ~name:"user"
        [ { Cfront.Project.m_name = "user"; m_files = sources } ]
    in
    let parsed = Cfront.Project.parse project in
    List.iter
      (fun (pf : Cfront.Project.parsed_file) ->
        let tu = (Cfront.Project.tu pf) in
        Printf.printf "== %s\n" tu.Cfront.Ast.tu_file;
        List.iter (fun d -> Printf.printf "  parse: %s\n" d) tu.Cfront.Ast.diags;
        List.iter
          (fun (c : Metrics.Complexity.func_cc) ->
            Printf.printf "  CC %3d  %s\n" c.Metrics.Complexity.cc
              (Cfront.Ast.qualified_name c.Metrics.Complexity.fn))
          (Metrics.Complexity.of_functions (Cfront.Ast.functions_of_tu tu)))
      parsed.Cfront.Project.files;
    let report = Misra.Registry.run_project parsed in
    print_string (Misra.Registry.render_summary report)
  in
  let doc = "Parse C/C++/CUDA files from disk and report complexity plus MISRA-subset violations." in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ files_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* callgraph / interproc                                                *)
(* ------------------------------------------------------------------ *)

let dot_arg =
  let doc =
    "Also write the call graph as Graphviz DOT to $(docv), with recursion \
     cycles clustered (render with: dot -Tsvg $(docv) -o graph.svg)."
  in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let callgraph_cmd =
  let run seed scale dot tele =
    with_telemetry ~cmd:"callgraph" tele @@ fun () ->
    let project = Corpus.Generator.generate ~seed (specs_of scale) in
    let parsed = Cfront.Project.parse project in
    let graph =
      Cfront.Callgraph.build (Cfront.Project.all_functions parsed)
    in
    let r = graph.Cfront.Callgraph.resolution in
    Printf.printf "functions: %d   edges: %d\n"
      (List.length graph.Cfront.Callgraph.nodes)
      (List.length graph.Cfront.Callgraph.edges);
    Printf.printf
      "call sites: %d (%d resolved, %d guessed, %d ambiguous, %d unresolved, \
       %d indirect)\n"
      r.Cfront.Callgraph.total_sites r.Cfront.Callgraph.resolved
      r.Cfront.Callgraph.guessed r.Cfront.Callgraph.ambiguous
      r.Cfront.Callgraph.unresolved r.Cfront.Callgraph.indirect;
    Printf.printf "kernel launches: %d   function pointers taken: %d\n"
      r.Cfront.Callgraph.kernel_launches
      (List.length r.Cfront.Callgraph.fnptr_taken);
    (match Cfront.Callgraph.recursion_cycles graph with
     | [] -> print_string "recursion cycles: none\n"
     | cycles ->
       Printf.printf "recursion cycles: %d\n" (List.length cycles);
       List.iter
         (fun cycle ->
           Printf.printf "  %s\n" (String.concat " -> " cycle))
         cycles);
    match dot with
    | None -> ()
    | Some path ->
      try_write "DOT call graph" (fun () -> Interproc.Dot.write ~path graph);
      Printf.printf "wrote DOT call graph to %s\n" path
  in
  let doc =
    "Build the whole-program call graph with per-site resolution accounting \
     (resolved/guessed/ambiguous/unresolved/indirect) and recursion cycles."
  in
  Cmd.v (Cmd.info "callgraph" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ dot_arg $ telemetry_term)

let interproc_cmd =
  let run seed scale format dot tele =
    with_telemetry ~cmd:"interproc" tele @@ fun () ->
    let project = Corpus.Generator.generate ~seed (specs_of scale) in
    let parsed = Cfront.Project.parse project in
    let _, ip = Misra.Rule.producers parsed in
    (match format with
     | Util.Table.Text -> print_string (Iso26262.Report.render_interproc ip)
     | (Util.Table.Markdown | Util.Table.Csv) as fmt ->
       print_string
         (Util.Table.render_as fmt (Iso26262.Report.interproc_table ip)));
    match dot with
    | None -> ()
    | Some path ->
      try_write "DOT call graph" (fun () ->
          Interproc.Dot.write ~path ip.Interproc.Summary.graph);
      Printf.printf "wrote DOT call graph to %s\n" path
  in
  let doc =
    "Whole-program summary engine: SCC condensation, bottom-up \
     purity/side-effect summaries, global-coupling matrix, worst-case \
     call/stack depth and cross-call initialization flows."
  in
  Cmd.v (Cmd.info "interproc" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ format_arg $ dot_arg
          $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* wcet                                                                 *)
(* ------------------------------------------------------------------ *)

let wcet_cmd =
  let run seed scale tele =
    with_telemetry ~cmd:"wcet" tele @@ fun () ->
    let project = Corpus.Generator.generate ~seed (specs_of scale) in
    let parsed = Cfront.Project.parse project in
    List.iter
      (fun modname ->
        let pfs = Cfront.Project.parsed_files_of_module parsed modname in
        let s =
          Metrics.Wcet.summarize
            (Metrics.Wcet.of_functions (Cfront.Project.defined_functions pfs))
        in
        Printf.printf "%-14s %4d functions: %4d analyzable, %4d parametric, %3d unanalyzable\n"
          modname s.Metrics.Wcet.total s.Metrics.Wcet.analyzable
          s.Metrics.Wcet.parametric s.Metrics.Wcet.unanalyzable)
      (Cfront.Project.module_names project)
  in
  let doc = "Classify functions by static WCET analyzability (constant/parametric/unbounded loops)." in
  Cmd.v (Cmd.info "wcet" ~doc) Term.(const run $ seed_arg $ scale_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* brook                                                                *)
(* ------------------------------------------------------------------ *)

let brook_cmd =
  let run seed scale tele =
    with_telemetry ~cmd:"brook" tele @@ fun () ->
    let project = Corpus.Generator.generate ~seed (specs_of scale) in
    let parsed = Cfront.Project.parse project in
    let reports = Cudasim.Brook_auto.of_files parsed.Cfront.Project.files in
    List.iter
      (fun (r : Cudasim.Brook_auto.report) ->
        Printf.printf "%-55s %s\n" r.Cudasim.Brook_auto.kernel
          (Cudasim.Brook_auto.classification_name r.Cudasim.Brook_auto.classification))
      reports;
    let s = Cudasim.Brook_auto.summarize reports in
    Printf.printf "\n%d kernels: %d pure stream, %d need gather, %d not portable\n"
      s.Cudasim.Brook_auto.total s.Cudasim.Brook_auto.pure_stream
      s.Cudasim.Brook_auto.needs_gather s.Cudasim.Brook_auto.not_portable
  in
  let doc = "Check CUDA kernels for Brook Auto (certifiable stream subset) portability." in
  Cmd.v (Cmd.info "brook" ~doc) Term.(const run $ seed_arg $ scale_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* faults                                                               *)
(* ------------------------------------------------------------------ *)

let faults_cmd =
  let run tele =
    with_telemetry ~cmd:"faults" tele @@ fun () ->
    let outcomes = Corpus.Fault_src.run_all () in
    List.iter
      (fun (o : Corpus.Fault_src.outcome) ->
        Printf.printf "%-26s %-7s %s\n"
          o.Corpus.Fault_src.scenario.Corpus.Fault_src.sc_name
          (if o.Corpus.Fault_src.faulted then "FAULT" else "ok")
          o.Corpus.Fault_src.detail)
      outcomes;
    let realized, expected, as_expected, total = Corpus.Fault_src.summary outcomes in
    Printf.printf
      "\n%d of %d undefended scenarios fault; %d of %d scenarios behave as the static\n\
       defensive-implementation analysis (Table 1 item 4) predicts.\n"
      realized expected as_expected total
  in
  let doc = "Run the fault-injection scenarios (invalid inputs against the YOLO entry points)." in
  Cmd.v (Cmd.info "faults" ~doc) Term.(const run $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* serve: long-running audit service over a line protocol               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run seed scale tele =
    with_telemetry ~cmd:"serve" tele @@ fun () ->
    let default_seed = seed and default_scale = scale in
    let cache_stats () =
      match Cache.global () with
      | None -> { Cache.hits = 0; misses = 0; stores = 0; corrupt = 0;
                  invalidated = 0 }
      | Some c -> Cache.stats c
    in
    let stats_line (s : Cache.stats) =
      Printf.sprintf "hits=%d misses=%d stores=%d invalidated=%d corrupt=%d"
        s.Cache.hits s.Cache.misses s.Cache.stores s.Cache.invalidated
        s.Cache.corrupt
    in
    (* one request: audit [seed=N] [scale=full|small], each key at most
       once; the first bad or repeated argument is the answer *)
    let handle_audit args =
      let seed = ref default_seed and scale = ref default_scale in
      let seen = ref [] and err = ref None in
      let fail fmt =
        Printf.ksprintf (fun e -> if !err = None then err := Some e) fmt
      in
      List.iter
        (fun arg ->
          match String.index_opt arg '=' with
          | Some i when List.mem (String.sub arg 0 i) !seen ->
            fail "duplicate argument %S" arg
          | Some i -> (
            let k = String.sub arg 0 i in
            let v = String.sub arg (i + 1) (String.length arg - i - 1) in
            seen := k :: !seen;
            match (k, v, int_of_string_opt v) with
            | "seed", _, Some n -> seed := n
            | "scale", "full", _ -> scale := `Full
            | "scale", "small", _ -> scale := `Small
            | _ -> fail "bad argument %S" arg)
          | None -> fail "bad argument %S" arg)
        args;
      match !err with
      | Some e -> Printf.printf "err %s\n" e
      | None ->
        let before = cache_stats () in
        let t0 = Telemetry.now_us () in
        (match
           Iso26262.Audit.run ~seed:!seed ~specs:(specs_of !scale)
             ~open_vs_closed:(gpu_ratios ()) ()
         with
         | audit ->
           let report = Iso26262.Audit.render audit in
           let after = cache_stats () in
           Printf.printf "report %d\n" (String.length report);
           print_string report;
           Printf.printf "done seed=%d hits=%d misses=%d invalidated=%d wall_ms=%.0f\n"
             !seed
             (after.Cache.hits - before.Cache.hits)
             (after.Cache.misses - before.Cache.misses)
             (after.Cache.invalidated - before.Cache.invalidated)
             ((Telemetry.now_us () -. t0) /. 1e3)
         | exception e -> Printf.printf "err audit failed: %s\n" (Printexc.to_string e))
    in
    print_string "adcheck-serve/1 ready\n";
    flush stdout;
    let quit = ref false in
    while not !quit do
      match input_line stdin with
      | exception End_of_file -> quit := true
      | line ->
        let words =
          List.filter (fun s -> s <> "")
            (String.split_on_char ' ' (String.trim line))
        in
        (match words with
         | [] -> ()
         | [ "ping" ] -> print_string "pong\n"
         | [ "quit" ] | [ "exit" ] ->
           print_string "bye\n";
           quit := true
         | [ "stats" ] -> Printf.printf "stats %s\n" (stats_line (cache_stats ()))
         | "audit" :: args -> handle_audit args
         | w :: _ -> Printf.printf "err unknown command %S\n" w);
        flush stdout
    done
  in
  let doc =
    "Run a long-lived audit service over a stdin/stdout line protocol: \
     $(b,ping) -> $(b,pong); $(b,stats) -> cumulative cache counters; \
     $(b,audit [seed=N] [scale=full|small]) -> $(b,report <bytes>) followed \
     by the report and a $(b,done) line with the request's cache \
     hit/miss/invalidation deltas, or one $(b,err) line for a bad or \
     repeated argument; $(b,quit) ends the session.  With \
     $(b,--cache DIR) repeated requests answer warm from the artifact \
     cache — byte-identical to a cold run — so the service can absorb \
     continuous audit traffic from a CI fleet."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* explain: render one finding's why-chain                              *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let id_arg =
    let doc =
      "Finding id to explain (an $(b,F-)… id from an evidence journal or \
       the tool-evidence matrix; a unique prefix of at least 4 characters \
       also resolves)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FINDING-ID" ~doc)
  in
  let run seed scale id tele =
    with_telemetry ~cmd:"explain" tele @@ fun () ->
    (* Re-run the audit (deterministic in the seed) to rebuild the journal
       the id came from, then render the finding's witness chain with
       source excerpts from the same corpus. *)
    let audit =
      Iso26262.Audit.run ~seed ~specs:(specs_of scale)
        ~open_vs_closed:(gpu_ratios ()) ()
    in
    match Provenance.find id with
    | Error e ->
      Printf.eprintf "adcheck: %s\n" e;
      exit 1
    | Ok f ->
      let sources = Hashtbl.create 256 in
      List.iter
        (fun (pf : Cfront.Project.parsed_file) ->
          Hashtbl.replace sources pf.Cfront.Project.file.Cfront.Project.path
            pf.Cfront.Project.file.Cfront.Project.content)
        audit.Iso26262.Audit.parsed.Cfront.Project.files;
      List.iter
        (fun (path, content) -> Hashtbl.replace sources path content)
        (Corpus.Yolo_src.files @ Corpus.Stencil_src.files);
      print_string
        (Provenance.explain ~source:(Hashtbl.find_opt sources) f)
  in
  let doc =
    "Explain one audit finding: resolve its id in the evidence journal and \
     print the full witness chain (rule, dataflow facts, call chain, \
     covering scenario) with source excerpts."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ seed_arg $ scale_arg $ id_arg $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* bench-diff: the performance regression gate                          *)
(* ------------------------------------------------------------------ *)

let bench_diff_cmd =
  let old_arg =
    let doc = "Baseline record (adcheck-bench/1 or adcheck-metrics/1 JSON)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc)
  in
  let new_arg =
    let doc =
      "Candidate records to gate (same schema as $(b,OLD)): repeated runs of \
       one export.  Counters must match in every one; each latency is compared \
       by its median across them."
    in
    Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"NEW" ~doc)
  in
  let pct_arg =
    let doc =
      "Fail when a latency series (experiment wall time, histogram time sum) \
       grows by more than $(docv) percent over the baseline (and by more than \
       the per-series absolute noise floor).  Counters always compare exactly."
    in
    Arg.(value & opt float 10.0 & info [ "fail-on-regress" ] ~docv:"PCT" ~doc)
  in
  let run old_path new_paths pct =
    let load path =
      match Benchdiff.load path with
      | Ok r -> r
      | Error e ->
        Util.Log.error "%s" e;
        exit 2
    in
    let old_r = load old_path in
    let findings =
      Benchdiff.diff_runs ~fail_on_regress_pct:pct old_r (List.map load new_paths)
    in
    print_string (Benchdiff.render findings);
    if not (Benchdiff.ok findings) then exit 1
  in
  let doc =
    "Compare a baseline with one or more runs of a performance record and \
     fail on regression: counters and histogram bucket contents exactly in \
     every run, latencies by their median across the runs, with a threshold.  \
     Exit status 0 when clean, 1 on findings, 2 on unreadable records."
  in
  Cmd.v (Cmd.info "bench-diff" ~doc)
    Term.(const run $ old_arg $ new_arg $ pct_arg)

let () =
  let doc = "ISO 26262 software-guideline assessment for AD software (DAC 2019 reproduction)" in
  let info = Cmd.info "adcheck" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ audit_cmd; complexity_cmd; misra_cmd; dataflow_cmd; coverage_cmd;
            gpuperf_cmd; corpus_cmd; check_cmd; callgraph_cmd; interproc_cmd;
            wcet_cmd; brook_cmd; faults_cmd; serve_cmd; explain_cmd;
            bench_diff_cmd ]))
