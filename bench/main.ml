(** Benchmark harness: regenerates every table and figure of the paper
    and (with [--out]) writes a machine-readable BENCH_*.json
    performance record.

    Usage:
      dune exec bench/main.exe -- [OPTIONS] [NAMES]

    NAMES select experiments (default: all), among: table1 table2 table3
    fig3 fig4 fig5 fig6 fig7 fig8a fig8b observations fig1 fig2 testgen
    traceability compile overhead incremental.  An unknown name aborts
    with the valid list before anything runs.  The extensions that
    [adcheck] prints (wcet, brook, faults, interproc, combined coverage)
    are its subcommands, not experiments here.

    Options:
      --scale small|full   corpus scale for the audit (default full)
      --seed N             generator seed (default 2019)
      --jobs LIST          comma-separated worker-domain counts, e.g. 1,4;
                           each selected experiment is re-run per value on
                           a fresh audit (default: ADCHECK_JOBS, else 1)
      --out FILE           write per-experiment wall time + telemetry
                           counter snapshots as JSON (e.g. BENCH_7.json)
      --metrics FILE       write the flight-recorder adcheck-metrics/1
                           record of the whole run (counters, latency
                           histograms, GC phases, pool stats); compare
                           records with `adcheck bench-diff`

    Experiment ids follow DESIGN.md's per-experiment index. *)

let gpu = Gpuperf.Device.titan_v
let cpu = Gpuperf.Device.xeon_e5

let bench_seed = ref 2019
let bench_scale = ref `Full

(* The audited corpus and all derived artifacts, computed once per jobs
   setting (reads the --scale/--seed refs, which are set before the
   first force).  A ref-of-lazy rather than a plain lazy so the --jobs
   sweep can discard it and re-audit under a different domain count. *)
let fresh_audit () =
  lazy
    (let ratios =
       List.map (fun (l, r) -> (l, r)) (Gpuperf.Suites.gemm_comparison ~device:gpu)
       @ List.map (fun (l, _, r) -> (l, r)) (Gpuperf.Suites.conv_comparison ~device:gpu)
     in
     let specs =
       match !bench_scale with
       | `Full -> Corpus.Apollo_profile.full
       | `Small -> Corpus.Apollo_profile.small
     in
     Iso26262.Audit.run ~seed:!bench_seed ~specs ~open_vs_closed:ratios ())

let audit_cell = ref (fresh_audit ())
let reset_audit () = audit_cell := fresh_audit ()
let force_audit () = Lazy.force !audit_cell

let metrics () = (force_audit ()).Iso26262.Audit.metrics

let heading title =
  Printf.printf "\n================ %s ================\n\n" title

(* ------------------------------------------------------------------ *)
(* Experiments                                                          *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  heading "Table 1 (paper) - modeling and coding guidelines";
  print_string
    (Iso26262.Report.render_findings
       ~title:"ISO 26262-6 Table 1 vs measured verdicts"
       (force_audit ()).Iso26262.Audit.coding)

let run_table2 () =
  heading "Table 2 (paper) - software architectural design";
  print_string
    (Iso26262.Report.render_findings
       ~title:"ISO 26262-6 Table 3 vs measured verdicts"
       (force_audit ()).Iso26262.Audit.architecture);
  let tbl =
    Util.Table.make ~title:"Component metrics behind the verdicts"
      ~header:[ "component"; "LOC"; "files"; "functions"; "interface"; "fan-in";
                "fan-out"; "cohesion"; "threads" ]
      ~aligns:[ Util.Table.Left; Util.Table.Right; Util.Table.Right;
                Util.Table.Right; Util.Table.Right; Util.Table.Right;
                Util.Table.Right; Util.Table.Right; Util.Table.Left ]
      ()
  in
  let tbl =
    List.fold_left
      (fun tbl (c : Metrics.Architecture.component) ->
        Util.Table.add_row tbl
          [ c.Metrics.Architecture.name;
            string_of_int c.Metrics.Architecture.loc;
            string_of_int c.Metrics.Architecture.n_files;
            string_of_int c.Metrics.Architecture.n_functions;
            string_of_int c.Metrics.Architecture.interface_size;
            string_of_int c.Metrics.Architecture.fan_in;
            string_of_int c.Metrics.Architecture.fan_out;
            Util.Table.fmt_float c.Metrics.Architecture.cohesion;
            (if c.Metrics.Architecture.uses_threads then "yes" else "no") ])
      tbl (metrics ()).Iso26262.Project_metrics.architecture
  in
  print_string (Util.Table.render tbl)

let run_table3 () =
  heading "Table 3 (paper) - software unit design and implementation";
  print_string
    (Iso26262.Report.render_findings
       ~title:"ISO 26262-6 Table 8 vs measured verdicts"
       (force_audit ()).Iso26262.Audit.unit_design)

let run_fig3 () =
  heading "Figure 3 - complexity, LOC and functions per Apollo module";
  print_string (Iso26262.Report.render_module_summaries (metrics ()));
  let m = metrics () in
  Printf.printf
    "total: %d physical LOC, %d functions, %d with CC>10 (paper: >220k LOC, 554 functions)\n\n"
    m.Iso26262.Project_metrics.total_loc m.Iso26262.Project_metrics.total_functions
    m.Iso26262.Project_metrics.over10;
  print_string
    (Util.Chart.render ~value_fmt:(Printf.sprintf "%.0f")
       ~title:"functions with cyclomatic complexity > 10 per module"
       (List.map
          (fun (mm : Iso26262.Project_metrics.module_metrics) ->
            { Util.Chart.label = mm.Iso26262.Project_metrics.modname;
              value =
                float_of_int
                  mm.Iso26262.Project_metrics.complexity.Metrics.Complexity.over_10 })
          m.Iso26262.Project_metrics.modules))

let run_fig4 () =
  heading "Figure 4 - CUDA code structure of the object detection module";
  let c = (metrics ()).Iso26262.Project_metrics.cuda in
  let tbl =
    Util.Table.make ~title:"CUDA usage census (perception module kernels)"
      ~header:[ "metric"; "value" ]
      ~aligns:[ Util.Table.Left; Util.Table.Right ] ()
  in
  let rows =
    [ ("__global__ kernels", c.Cudasim.Census.kernels);
      ("__device__ functions", c.Cudasim.Census.device_functions);
      ("kernel launches", c.Cudasim.Census.kernel_launches);
      ("cudaMalloc call sites", c.Cudasim.Census.cuda_mallocs);
      ("cudaMemcpy call sites", c.Cudasim.Census.cuda_memcpys);
      ("cudaFree call sites", c.Cudasim.Census.cuda_frees);
      ("kernel parameters", c.Cudasim.Census.kernel_params);
      ("  of which raw pointers", c.Cudasim.Census.kernel_pointer_params);
      ("kernels without bound check", c.Cudasim.Census.kernels_without_bound_check) ]
  in
  let tbl =
    List.fold_left
      (fun tbl (k, v) -> Util.Table.add_row tbl [ k; string_of_int v ])
      tbl rows
  in
  print_string (Util.Table.render tbl);
  Printf.printf
    "pointer parameter ratio: %.0f%% - the scale_bias_gpu pattern of Figure 4:\n\
     host and device pointer pairs, dynamically allocated, are intrinsic to CUDA.\n"
    (100.0 *. Cudasim.Census.pointer_param_ratio c)

let run_fig5 () =
  heading "Figure 5 - statement/branch/MC/DC coverage of object detection (YOLO)";
  print_string
    (Iso26262.Report.render_coverage
       ~title:"RapiCover-equivalent coverage under the real-scenario tests"
       (force_audit ()).Iso26262.Audit.yolo_coverage);
  print_string "paper: averages 83% / 75% / 61%; minima 19% / 37% / 10%\n\n";
  print_string
    (Util.Chart.render_grouped ~value_fmt:(Printf.sprintf "%.0f%%")
       ~title:"per-file coverage (statement / branch / MC/DC)"
       (List.map
          (fun (f : Coverage.Collector.file_coverage) ->
            ( f.Coverage.Collector.file,
              [ { Util.Chart.label = "stmt"; value = f.Coverage.Collector.stmt_pct };
                { Util.Chart.label = "branch"; value = f.Coverage.Collector.branch_pct };
                { Util.Chart.label = "mcdc"; value = f.Coverage.Collector.mcdc_pct } ] ))
          (force_audit ()).Iso26262.Audit.yolo_coverage))

let run_fig6 () =
  heading "Figure 6 - CUDA stencil kernels executed on the CPU (cuda4cpu)";
  print_string
    (Iso26262.Report.render_coverage ~title:"2D and 3D stencil coverage"
       (force_audit ()).Iso26262.Audit.stencil_coverage);
  print_string "paper: full statement or branch coverage is not achieved on either kernel\n"

let run_fig7 () =
  heading "Figure 7 - Apollo object detection: open- vs closed-source libraries";
  let rows = Gpuperf.Yolo_bench.run ~gpu ~cpu () in
  let tbl =
    Util.Table.make
      ~title:"YOLOv2 inference under each library implementation"
      ~header:[ "implementation"; "source"; "device"; "ms/frame"; "fps"; "vs cuDNN" ]
      ~aligns:[ Util.Table.Left; Util.Table.Left; Util.Table.Left;
                Util.Table.Right; Util.Table.Right; Util.Table.Right ]
      ()
  in
  let tbl =
    List.fold_left
      (fun tbl (r : Gpuperf.Yolo_bench.row) ->
        Util.Table.add_row tbl
          [ r.Gpuperf.Yolo_bench.impl;
            (if r.Gpuperf.Yolo_bench.closed_source then "closed" else "open");
            r.Gpuperf.Yolo_bench.device_name;
            Util.Table.fmt_float r.Gpuperf.Yolo_bench.total_ms;
            Util.Table.fmt_float ~decimals:1 r.Gpuperf.Yolo_bench.fps;
            Util.Table.fmt_float r.Gpuperf.Yolo_bench.vs_baseline ^ "x" ])
      tbl rows
  in
  print_string (Util.Table.render tbl);
  print_string
    "paper: CUTLASS/ISAAC competitive with cuBLAS/cuDNN; CPU BLAS two orders of magnitude slower\n"

let run_fig8a () =
  heading "Figure 8(a) - CUTLASS vs cuBLAS on GEMM workloads";
  let tbl =
    Util.Table.make ~title:"relative performance (>1 means CUTLASS faster)"
      ~header:[ "workload"; "CUTLASS/cuBLAS" ]
      ~aligns:[ Util.Table.Left; Util.Table.Right ] ()
  in
  let rows = Gpuperf.Suites.gemm_comparison ~device:gpu in
  let tbl =
    List.fold_left
      (fun tbl (label, ratio) ->
        Util.Table.add_row tbl [ label; Util.Table.fmt_float ratio ])
      tbl rows
  in
  print_string (Util.Table.render tbl);
  print_string
    (Util.Chart.render ~value_fmt:(Printf.sprintf "%.2f")
       ~title:"relative performance (1.0 = parity with cuBLAS)"
       (List.map (fun (l, r) -> { Util.Chart.label = l; value = r }) rows));
  Printf.printf "geometric mean: %.2f (paper: comparable performance)\n"
    (Util.Stats.geomean (List.map snd rows))

let run_fig8b () =
  heading "Figure 8(b) - ISAAC vs cuDNN on convolution workloads";
  let tbl =
    Util.Table.make ~title:"relative performance (>1 means ISAAC faster)"
      ~header:[ "workload"; "domain"; "ISAAC/cuDNN" ]
      ~aligns:[ Util.Table.Left; Util.Table.Left; Util.Table.Right ] ()
  in
  let rows = Gpuperf.Suites.conv_comparison ~device:gpu in
  let tbl =
    List.fold_left
      (fun tbl (label, domain, ratio) ->
        Util.Table.add_row tbl [ label; domain; Util.Table.fmt_float ratio ])
      tbl rows
  in
  print_string (Util.Table.render tbl);
  print_string
    (Util.Chart.render ~value_fmt:(Printf.sprintf "%.2f")
       ~title:"relative performance (1.0 = parity with cuDNN)"
       (List.map (fun (l, _, r) -> { Util.Chart.label = l; value = r }) rows));
  Printf.printf "geometric mean: %.2f (paper: very competitive across domains)\n"
    (Util.Stats.geomean (List.map (fun (_, _, r) -> r) rows))

let run_observations () =
  heading "Observations 1-14";
  let a = force_audit () in
  print_string (Iso26262.Report.render_observations a.Iso26262.Audit.observations);
  print_string (Iso26262.Report.render_compliance (Iso26262.Audit.all_findings a))

let run_fig1 () =
  heading "Figure 1 - the AD pipeline";
  print_string (Iso26262.Taxonomy.render_pipeline ())

let run_fig2 () =
  heading "Figure 2 - perception library taxonomy (open vs closed source)";
  print_string (Iso26262.Taxonomy.render_taxonomy ());
  Printf.printf "closed-source dependencies on the critical path: %d\n"
    (Iso26262.Taxonomy.closed_count Iso26262.Taxonomy.taxonomy)

let run_testgen () =
  heading "Extension - gap-driven test generation (Observation 10: additional test cases)";
  let tus = Corpus.Yolo_src.parse_all () in
  let measured = List.map fst Corpus.Yolo_src.measured_files in
  let r = Coverage.Testgen.close_gaps ~entry:Corpus.Yolo_src.entry ~measured tus in
  Printf.printf "original real-scenario tests: %.1f%% statement, %.1f%% branch\n"
    r.Coverage.Testgen.before_stmt r.Coverage.Testgen.before_branch;
  Printf.printf "with %d synthesized probes:   %.1f%% statement, %.1f%% branch\n\n"
    (Util.Stats.sum_int
       (List.map (fun p -> List.length p.Coverage.Testgen.args) r.Coverage.Testgen.plans))
    r.Coverage.Testgen.after_stmt r.Coverage.Testgen.after_branch;
  List.iter
    (fun (p : Coverage.Testgen.call_plan) ->
      Printf.printf "  %-28s %2d probes  (%s)\n" p.Coverage.Testgen.target
        (List.length p.Coverage.Testgen.args) p.Coverage.Testgen.reason)
    r.Coverage.Testgen.plans;
  Printf.printf
    "\nthe remaining gap needs pointer/struct inputs - the part that stays manual.\n"

let run_traceability () =
  heading "Extension - safety-requirement traceability matrix";
  let a = force_audit () in
  let traces = Iso26262.Traceability.trace (Iso26262.Audit.all_findings a) in
  print_string (Iso26262.Traceability.render traces);
  let missing = Iso26262.Traceability.unallocated_requirements a.Iso26262.Audit.metrics in
  if missing = [] then
    print_string "allocation check: every requirement maps to existing components\n"
  else
    List.iter
      (fun (sr : Iso26262.Traceability.software_requirement) ->
        Printf.printf "allocation defect: %s references missing components\n"
          sr.Iso26262.Traceability.sr_id)
      missing

let run_compile () =
  heading "Coverage engines - tree-walking oracle vs compiled bytecode";
  let set = Corpus.Scenario_set.full () in
  let n_scenarios = List.length set.Corpus.Scenario_set.scenarios in
  (* Same scenario set through both engines.  The per-engine step totals
     (env.steps: AST nodes visited vs instructions dispatched) are the
     work-tier counters — independent of jobs and wall clock, gated
     exactly by `adcheck bench-diff`; the wall times are gauges.  The
     tree-walking oracle (test/oracle) runs the set sequentially, the
     bytecode engine across the pool. *)
  let time_engine run_all =
    let t0 = Telemetry.now_us () in
    let outcomes = run_all set.Corpus.Scenario_set.scenarios in
    let wall_ms = (Telemetry.now_us () -. t0) /. 1e3 in
    let steps =
      List.fold_left
        (fun acc o -> acc + o.Coverage.Scenario.o_steps)
        0 outcomes
    in
    (outcomes, wall_ms, steps)
  in
  let tree_outcomes, tree_ms, tree_steps = time_engine Oracle.Tree.run_scenarios in
  let bc_outcomes, bc_ms, bc_steps = time_engine Coverage.Scenario.run_all in
  Telemetry.incr ~by:tree_steps "coverage.engine.tree.steps";
  Telemetry.incr ~by:bc_steps "coverage.engine.bytecode.steps";
  Telemetry.set_gauge "bench.compile.tree_ms" tree_ms;
  Telemetry.set_gauge "bench.compile.bytecode_ms" bc_ms;
  let fp outcomes =
    Coverage.Collector.fingerprint (Coverage.Scenario.merged_collector outcomes)
  in
  let tree_fp = fp tree_outcomes and bc_fp = fp bc_outcomes in
  if tree_fp <> bc_fp then
    failwith "compile bench: engine fingerprints diverge";
  Printf.printf
    "%d scenarios on %d worker domain(s), merged fingerprints identical\n\
     tree:     %8d steps  %8.1f ms\n\
     bytecode: %8d steps  %8.1f ms\n\
     step ratio %.2fx (bytecode dispatches fewer, coarser instructions)\n"
    n_scenarios
    (Util.Pool.default_jobs ())
    tree_steps tree_ms bc_steps bc_ms
    (float_of_int tree_steps /. float_of_int (max 1 bc_steps))

let run_overhead () =
  heading "Telemetry overhead - the audit with the flight recorder off vs on";
  (* Same fresh audit twice: once with the sink disabled (every recording
     entry point is a single boolean test), once fully enabled.  The
     prior enabled state is restored afterwards so the experiment doesn't
     flip recording off for the rest of the bench run, and the result
    gauges are set after restoring (they'd be dropped while disabled). *)
  let was_enabled = Telemetry.enabled () in
  let time_once enabled =
    Telemetry.set_enabled enabled;
    reset_audit ();
    let t0 = Telemetry.now_us () in
    ignore (force_audit ());
    (Telemetry.now_us () -. t0) /. 1e3
  in
  let disabled_ms = time_once false in
  let enabled_ms = time_once true in
  Telemetry.set_enabled was_enabled;
  reset_audit ();
  let ratio = enabled_ms /. Float.max 1e-9 disabled_ms in
  Telemetry.set_gauge "bench.overhead.disabled_ms" disabled_ms;
  Telemetry.set_gauge "bench.overhead.enabled_ms" enabled_ms;
  Telemetry.set_gauge "bench.overhead.ratio" ratio;
  Printf.printf
    "audit wall time: %.1f ms recorder off, %.1f ms recorder on (%.3fx)\n\
     (spans, counters, histograms, GC phases and pool metrics all recording)\n"
    disabled_ms enabled_ms ratio

(* 7: incremental audit under the content-addressed cache ------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let append_probe (p : Cfront.Project.t) path =
  { p with
    Cfront.Project.p_modules =
      List.map
        (fun (m : Cfront.Project.modul) ->
          { m with
            Cfront.Project.m_files =
              List.map
                (fun (f : Cfront.Project.source_file) ->
                  if f.Cfront.Project.path = path then
                    { f with
                      Cfront.Project.content =
                        f.Cfront.Project.content
                        ^ "\nint bench_incremental_probe() { return 7; }\n" }
                  else f)
                m.Cfront.Project.m_files })
        p.Cfront.Project.p_modules }

let run_incremental () =
  heading "Incremental audit - cold vs warm vs one-file edit under the cache";
  (* A scratch store under the system temp dir, wiped before the passes
     so the hit/miss/store counts are deterministic across bench
     runs, and removed again afterwards. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "adcheck-bench-cache"
  in
  rm_rf dir;
  let store = Cache.open_dir dir in
  let ratios =
    List.map (fun (l, r) -> (l, r)) (Gpuperf.Suites.gemm_comparison ~device:gpu)
    @ List.map (fun (l, _, r) -> (l, r)) (Gpuperf.Suites.conv_comparison ~device:gpu)
  in
  let specs =
    match !bench_scale with
    | `Full -> Corpus.Apollo_profile.full
    | `Small -> Corpus.Apollo_profile.small
  in
  let project = Corpus.Generator.generate ~seed:!bench_seed specs in
  let edited =
    match
      List.find_opt
        (fun (f : Cfront.Project.source_file) -> not f.Cfront.Project.header)
        (Cfront.Project.all_files project)
    with
    | Some f -> append_probe project f.Cfront.Project.path
    | None -> project
  in
  let was_enabled = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_global None;
      Telemetry.set_enabled was_enabled;
      rm_rf dir)
  @@ fun () ->
  Cache.set_global (Some store);
  let pass project =
    let b = Cache.stats store in
    let t0 = Telemetry.now_us () in
    ignore
      (Iso26262.Audit.run ~seed:!bench_seed ~specs ~project
         ~open_vs_closed:ratios ());
    let ms = (Telemetry.now_us () -. t0) /. 1e3 in
    let a = Cache.stats store in
    (ms, a.Cache.hits - b.Cache.hits, a.Cache.misses - b.Cache.misses)
  in
  let cold_ms, cold_hits, cold_misses = pass project in
  let warm_ms, warm_hits, warm_misses = pass project in
  let edit_ms, edit_hits, edit_misses = pass edited in
  Telemetry.set_gauge "bench.incremental.cold_ms" cold_ms;
  Telemetry.set_gauge "bench.incremental.warm_ms" warm_ms;
  Telemetry.set_gauge "bench.incremental.edit_ms" edit_ms;
  Telemetry.set_gauge "bench.incremental.cold_misses" (float_of_int cold_misses);
  Telemetry.set_gauge "bench.incremental.warm_misses" (float_of_int warm_misses);
  Telemetry.set_gauge "bench.incremental.edit_misses" (float_of_int edit_misses);
  let tbl =
    Util.Table.make ~title:"audit wall time and cache traffic per pass"
      ~header:[ "pass"; "wall"; "hits"; "misses" ]
      ~aligns:
        [ Util.Table.Left; Util.Table.Right; Util.Table.Right; Util.Table.Right ]
      ()
  in
  let row tbl name ms hits misses =
    Util.Table.add_row tbl
      [ name; Printf.sprintf "%.1f ms" ms; string_of_int hits; string_of_int misses ]
  in
  let tbl = row tbl "cold (empty store)" cold_ms cold_hits cold_misses in
  let tbl = row tbl "warm (same tree)" warm_ms warm_hits warm_misses in
  let tbl = row tbl "one-file edit" edit_ms edit_hits edit_misses in
  print_string (Util.Table.render tbl);
  Printf.printf
    "\none-file edit recomputes %d artifact(s) vs %d cold (%.0f%% served warm)\n"
    edit_misses cold_misses
    (100.0
    *. float_of_int edit_hits
    /. Float.max 1.0 (float_of_int (edit_hits + edit_misses)))

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("table3", run_table3);
    ("fig3", run_fig3);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("fig8a", run_fig8a);
    ("fig8b", run_fig8b);
    ("observations", run_observations);
    ("fig1", run_fig1);
    ("fig2", run_fig2);
    ("testgen", run_testgen);
    ("traceability", run_traceability);
    ("compile", run_compile);
    ("overhead", run_overhead);
    ("incremental", run_incremental);
  ]

(* ------------------------------------------------------------------ *)
(* Driver: argument parsing, validation, BENCH json                     *)
(* ------------------------------------------------------------------ *)

let valid_names () = String.concat ", " (List.map fst experiments)

let json_int_obj buf kvs =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%d" (Telemetry.json_escape k) v))
    kvs;
  Buffer.add_char buf '}'

let write_bench_json ~path ~scale ~seed ~jobs_list results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"adcheck-bench/1\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"scale\": \"%s\",\n"
       (match scale with `Full -> "full" | `Small -> "small"));
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string buf
    (Printf.sprintf "  \"jobs\": [%s],\n"
       (String.concat "," (List.map string_of_int jobs_list)));
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domains\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"experiments\": [";
  List.iteri
    (fun i (name, jobs, wall_ms, counters) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"name\": \"%s\", \"jobs\": %d, \"wall_ms\": %.3f, \"counters\": "
           (Telemetry.json_escape name) jobs wall_ms);
      json_int_obj buf counters;
      Buffer.add_char buf '}')
    results;
  Buffer.add_string buf "\n  ],\n  \"counters\": ";
  json_int_obj buf (Telemetry.counters ());
  Buffer.add_string buf ",\n  \"gauges\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%g" (Telemetry.json_escape k) v))
    (Telemetry.gauges ());
  Buffer.add_string buf "}\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let out = ref None in
  let metrics_out = ref None in
  let jobs_list = ref [ Util.Pool.default_jobs () ] in
  let names = ref [] in
  let usage_fail fmt =
    Printf.ksprintf
      (fun msg ->
        Util.Log.error "%s" msg;
        exit 2)
      fmt
  in
  let rec parse_args = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      (match v with
       | "small" -> bench_scale := `Small
       | "full" -> bench_scale := `Full
       | _ -> usage_fail "unknown scale %s (valid: small, full)" v);
      parse_args rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n -> bench_seed := n
       | None -> usage_fail "--seed expects an integer, got %s" v);
      parse_args rest
    | "--out" :: v :: rest ->
      out := Some v;
      parse_args rest
    | "--metrics" :: v :: rest ->
      metrics_out := Some v;
      parse_args rest
    | "--jobs" :: v :: rest ->
      (match
         List.map int_of_string_opt (String.split_on_char ',' v)
         |> List.fold_left
              (fun acc j ->
                match (acc, j) with
                | Some js, Some j when j >= 1 -> Some (j :: js)
                | _ -> None)
              (Some [])
       with
       | Some (_ :: _ as js) -> jobs_list := List.rev js
       | _ -> usage_fail "--jobs expects a comma-separated list of ints >= 1, got %s" v);
      parse_args rest
    | [ ("--scale" | "--seed" | "--out" | "--jobs" | "--metrics") as flag ] ->
      usage_fail "%s expects an argument" flag
    | opt :: _ when String.length opt >= 2 && String.sub opt 0 2 = "--" ->
      usage_fail
        "unknown option %s (valid: --scale, --seed, --jobs, --out, --metrics)"
        opt
    | name :: rest ->
      names := name :: !names;
      parse_args rest
  in
  parse_args args;
  let selected = if !names = [] then List.map fst experiments else List.rev !names in
  (* validate every requested name before running anything *)
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) selected with
   | [] -> ()
   | unknown ->
     usage_fail "unknown experiment%s %s (valid: %s)"
       (if List.length unknown > 1 then "s" else "")
       (String.concat ", " unknown) (valid_names ()));
  if !out <> None || !metrics_out <> None then Telemetry.set_enabled true;
  (* One pass per --jobs value, each against a fresh audit so the sweep
     actually exercises the parallel stages rather than reusing the
     first pass's cached artifacts.  Counter deltas come from the
     snapshot/diff API, so concurrently-running experiments can't bleed
     into one another's attribution. *)
  let results =
    List.concat_map
      (fun jobs ->
        Util.Pool.set_default_jobs jobs;
        reset_audit ();
        List.map
          (fun name ->
            let run = List.assoc name experiments in
            let before = Telemetry.snapshot_counters () in
            let t0 = Telemetry.now_us () in
            Telemetry.with_span ~cat:"bench" ("bench." ^ name) run;
            let wall_ms = (Telemetry.now_us () -. t0) /. 1e3 in
            Util.Log.info "%s (jobs=%d): %.1f ms" name jobs wall_ms;
            (name, jobs, wall_ms, Telemetry.counters_since before))
          selected)
      !jobs_list
  in
  (match !out with
   | None -> ()
   | Some path ->
     write_bench_json ~path ~scale:!bench_scale ~seed:!bench_seed
       ~jobs_list:!jobs_list results;
     Util.Log.info "wrote %s" path);
  match !metrics_out with
  | None -> ()
  | Some path ->
    Telemetry.write_metrics ~path ();
    Util.Log.info "wrote %s" path
