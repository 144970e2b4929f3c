(* Tests for the extension modules: Halstead metrics + maintainability
   index, the Brook Auto portability checker, the Figure 1/2 structural
   models, the GPU-model ablations, and the MC/DC pairing-mode ablation. *)

let parse src = Cfront.Parser.parse_file ~file:"x.cu" src

(* ------------------------------------------------------------------ *)
(* Halstead                                                             *)
(* ------------------------------------------------------------------ *)

let test_halstead_counts () =
  (* a = a + 1;  operators: =, +, ; is grouping -> {=, +}; operands: a, 1 *)
  let h = Metrics.Halstead.of_tokens (Cfront.Lexer.tokenize ~file:"h.c" "a = a + 1;").Cfront.Lexer.tokens in
  Alcotest.(check int) "distinct operators" 2 h.Metrics.Halstead.n1;
  Alcotest.(check int) "distinct operands" 2 h.Metrics.Halstead.n2;
  Alcotest.(check int) "total operators" 2 h.Metrics.Halstead.big_n1;
  Alcotest.(check int) "total operands" 3 h.Metrics.Halstead.big_n2;
  Alcotest.(check int) "length" 5 h.Metrics.Halstead.length;
  Alcotest.(check bool) "volume positive" true (h.Metrics.Halstead.volume > 0.0)

let test_halstead_volume_grows () =
  let vol src =
    (Metrics.Halstead.of_tu (parse src)).Metrics.Halstead.volume
  in
  Alcotest.(check bool) "more code, more volume" true
    (vol "int F(int a) { return a + a * a - a / 2; }" > vol "int F(int a) { return a; }")

let test_mi_bounds_and_ordering () =
  let tu_simple = parse "int F(int a) { return a; }" in
  let tu_complex =
    parse
      "int G(int a, int b) {\n  int r = 0;\n  for (int i = 0; i < a; ++i) {\n    \
       if (i % 2 == 0 && b > i || a < 3) { r += i * b - a / 2; } else { r -= i; }\n    \
       switch (r % 5) { case 0: r++; break; case 1: r--; break; default: break; }\n  }\n  return r;\n}"
  in
  let mi tu =
    match Cfront.Ast.functions_of_tu tu with
    | [ fn ] -> Metrics.Halstead.mi_of_func ~tu fn
    | _ -> Alcotest.fail "one function"
  in
  let simple = mi tu_simple and complex = mi tu_complex in
  Alcotest.(check bool) "in [0,100]" true
    (simple >= 0.0 && simple <= 100.0 && complex >= 0.0 && complex <= 100.0);
  Alcotest.(check bool) "complex code is less maintainable" true (complex < simple)

let test_mi_module_report () =
  let project = Corpus.Generator.generate ~seed:11 [ List.hd Corpus.Apollo_profile.small ] in
  let parsed = Cfront.Project.parse project in
  let r =
    Metrics.Halstead.report_of_module ~modname:"perception" parsed.Cfront.Project.files
  in
  Alcotest.(check bool) "MI in a plausible band" true
    (r.Metrics.Halstead.mi > 20.0 && r.Metrics.Halstead.mi < 90.0)

(* [of_func] finds a function's tokens by binary search; the former
   filter scanned every token of the unit for its line span.  On every
   function of the small corpus the two agree. *)
let test_halstead_of_func_matches_filter () =
  let project = Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small in
  let parsed = Cfront.Project.parse project in
  let checked = ref 0 in
  List.iter
    (fun (pf : Cfront.Project.parsed_file) ->
      let tu = pf.Cfront.Project.tu in
      let toks = tu.Cfront.Ast.tokens in
      List.iter
        (fun (fn : Cfront.Ast.func) ->
          let first = fn.Cfront.Ast.f_loc.Cfront.Loc.line and last = fn.Cfront.Ast.f_end_line in
          let b = Cfront.Token.builder ~capacity:64 in
          for i = 0 to Cfront.Token.length toks - 1 do
            let l = Cfront.Token.line toks i in
            if l >= first && l <= last then
              Cfront.Token.push b (Cfront.Token.kind toks i) toks.Cfront.Token.positions.(i)
          done;
          incr checked;
          if Metrics.Halstead.of_func ~tu fn <> Metrics.Halstead.of_tokens (Cfront.Token.contents b ~file:toks.Cfront.Token.file)
          then Alcotest.failf "%s: %s differs from the filter" tu.Cfront.Ast.tu_file fn.Cfront.Ast.f_name)
        (Cfront.Ast.functions_of_tu tu))
    parsed.Cfront.Project.files;
  Alcotest.(check bool) "functions checked" true (!checked > 100)

(* ------------------------------------------------------------------ *)
(* Brook Auto                                                           *)
(* ------------------------------------------------------------------ *)

let classify src =
  match Cudasim.Brook_auto.of_files
          [ { Cfront.Project.file =
                { Cfront.Project.path = "k.cu"; modname = "k"; header = false; content = src };
              tu = parse src } ]
  with
  | [ r ] -> r
  | _ -> Alcotest.fail "one kernel expected"

let test_brook_pure_stream () =
  let r =
    classify
      "__global__ void Scale(float* output, float k, int n) {\n\
       int tid = blockIdx.x * blockDim.x + threadIdx.x;\n\
       if (tid < n) { output[tid] = output[tid] * k; }\n}"
  in
  Alcotest.(check bool) "pure stream" true
    (r.Cudasim.Brook_auto.classification = Cudasim.Brook_auto.Pure_stream);
  Alcotest.(check (list string)) "tid recognized" [ "tid" ]
    r.Cudasim.Brook_auto.thread_index_vars

let test_brook_needs_gather () =
  let r =
    classify
      "__global__ void Blur(float* output, float* input, int n) {\n\
       int tid = blockIdx.x * blockDim.x + threadIdx.x;\n\
       if (tid < n) { output[tid] = input[tid % n] * 0.5f; }\n}"
  in
  Alcotest.(check bool) "gather classified" true
    (r.Cudasim.Brook_auto.classification = Cudasim.Brook_auto.Needs_gather);
  Alcotest.(check bool) "gather counted" true (r.Cudasim.Brook_auto.gather_reads > 0)

let test_brook_scatter_blocks () =
  let r =
    classify
      "__global__ void Scatter(float* output, int* index, int n) {\n\
       int tid = blockIdx.x * blockDim.x + threadIdx.x;\n\
       if (tid < n) { output[index[tid]] = 1.0f; }\n}"
  in
  (match r.Cudasim.Brook_auto.classification with
   | Cudasim.Brook_auto.Not_portable bs ->
     Alcotest.(check bool) "scatter blocker" true
       (List.mem Cudasim.Brook_auto.Scatter_write bs)
   | _ -> Alcotest.fail "expected not portable")

let test_brook_unbounded_loop_blocks () =
  let r =
    classify
      "__global__ void Spin(float* output, int n) {\n\
       int tid = threadIdx.x;\n\
       while (output[tid] > 0.0f) { output[tid] = output[tid] - 1.0f; }\n}"
  in
  match r.Cudasim.Brook_auto.classification with
  | Cudasim.Brook_auto.Not_portable bs ->
    Alcotest.(check bool) "unbounded loop blocker" true
      (List.mem Cudasim.Brook_auto.Unbounded_loop bs)
  | _ -> Alcotest.fail "expected not portable"

let test_brook_dynamic_alloc_blocks () =
  let r =
    classify
      "__global__ void Alloc(float* output, int n) {\n\
       int tid = threadIdx.x;\n\
       float* tmp = (float*)malloc(n * sizeof(float));\n\
       output[tid] = tmp[0];\n}"
  in
  match r.Cudasim.Brook_auto.classification with
  | Cudasim.Brook_auto.Not_portable bs ->
    Alcotest.(check bool) "allocation blocker" true
      (List.mem Cudasim.Brook_auto.Dynamic_allocation bs)
  | _ -> Alcotest.fail "expected not portable"

let test_brook_corpus_summary () =
  let project = Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small in
  let parsed = Cfront.Project.parse project in
  let s = Cudasim.Brook_auto.summarize (Cudasim.Brook_auto.of_files parsed.Cfront.Project.files) in
  Alcotest.(check bool) "kernels found" true (s.Cudasim.Brook_auto.total > 0);
  Alcotest.(check int) "partition complete" s.Cudasim.Brook_auto.total
    (s.Cudasim.Brook_auto.pure_stream + s.Cudasim.Brook_auto.needs_gather
     + s.Cudasim.Brook_auto.not_portable)

(* ------------------------------------------------------------------ *)
(* CUDA census (Figure 4 evidence)                                      *)
(* ------------------------------------------------------------------ *)

let census_of src =
  Cudasim.Census.of_tu (parse src)

let test_census_counts () =
  let c =
    census_of
      "__global__ void K(float* out, float* biases, int n) {\n\
       int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
       if (i < n) { out[i] = biases[i]; }\n}\n\
       __device__ float Helper(float x) { return x * 2.0f; }\n\
       __device__ float d_gain = 1.5f;\n\
       void Launch(float* h, int n) {\n\
       float* d;\n\
       cudaMalloc((void**)&d, n * sizeof(float));\n\
       cudaMemcpy(d, h, n * sizeof(float), 1);\n\
       K<<<1, 32>>>(d, d, n);\n\
       cudaFree(d);\n}"
  in
  Alcotest.(check int) "kernels" 1 c.Cudasim.Census.kernels;
  Alcotest.(check int) "device functions" 1 c.Cudasim.Census.device_functions;
  Alcotest.(check int) "launches" 1 c.Cudasim.Census.kernel_launches;
  Alcotest.(check int) "cudaMalloc" 1 c.Cudasim.Census.cuda_mallocs;
  Alcotest.(check int) "cudaMemcpy" 1 c.Cudasim.Census.cuda_memcpys;
  Alcotest.(check int) "cudaFree" 1 c.Cudasim.Census.cuda_frees;
  Alcotest.(check int) "kernel params" 3 c.Cudasim.Census.kernel_params;
  Alcotest.(check int) "pointer params" 2 c.Cudasim.Census.kernel_pointer_params;
  Alcotest.(check int) "device globals" 1 c.Cudasim.Census.device_globals;
  Alcotest.(check int) "guarded kernel" 0 c.Cudasim.Census.kernels_without_bound_check

let test_census_unguarded_kernel () =
  let c =
    census_of
      "__global__ void K(float* out, int n) { int i = threadIdx.x; out[i] = 1.0f; }"
  in
  Alcotest.(check int) "unguarded detected" 1
    c.Cudasim.Census.kernels_without_bound_check;
  Alcotest.(check (float 1e-9)) "pointer ratio" 0.5
    (Cudasim.Census.pointer_param_ratio c)

let test_census_add () =
  let c = census_of "__global__ void K(int n) { }" in
  let s = Cudasim.Census.add c c in
  Alcotest.(check int) "doubles" 2 s.Cudasim.Census.kernels

(* ------------------------------------------------------------------ *)
(* Taxonomy (Figures 1 and 2)                                           *)
(* ------------------------------------------------------------------ *)

let test_pipeline_structure () =
  Alcotest.(check int) "eight modules" 8 (List.length Iso26262.Taxonomy.pipeline);
  let names = List.map (fun m -> m.Iso26262.Taxonomy.pm_name) Iso26262.Taxonomy.pipeline in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "perception"; "prediction"; "localization"; "routing"; "planning"; "control"; "canbus" ];
  (* every non-sensor input is itself a pipeline module *)
  let sensors = [ "camera"; "LIDAR"; "radar"; "GPS"; "IMU" ] in
  List.iter
    (fun m ->
      List.iter
        (fun input ->
          Alcotest.(check bool) (input ^ " resolvable") true
            (List.mem input names || List.mem input sensors))
        m.Iso26262.Taxonomy.pm_inputs)
    Iso26262.Taxonomy.pipeline

let test_taxonomy_closed_count () =
  (* cuDNN, cuBLAS, TensorRT, CUDA runtime *)
  Alcotest.(check int) "four closed dependencies" 4
    (Iso26262.Taxonomy.closed_count Iso26262.Taxonomy.taxonomy)

let test_taxonomy_renders () =
  let s = Iso26262.Taxonomy.render_taxonomy () in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " rendered") true (Util.Strutil.contains_sub ~sub:n s))
    [ "cuDNN"; "cuBLAS"; "TensorRT"; "CUTLASS"; "ISAAC"; "CLOSED" ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let test_ablation_single_tile_hurts_cublas () =
  (* restricting cuBLAS to one tile makes CUTLASS (with its menu) look
     much better than it really is: the CUTLASS/cuBLAS geomean jumps *)
  let rows = Gpuperf.Ablation.run ~device:Gpuperf.Device.titan_v in
  let geo label =
    match
      List.find_opt (fun r -> r.Gpuperf.Ablation.label = label) rows
    with
    | Some { Gpuperf.Ablation.fig8a_geomean = Some g; _ } -> g
    | _ -> Alcotest.failf "row %s missing" label
  in
  Alcotest.(check bool) "menu matters" true
    (geo "CUTLASS vs cuBLAS single-tile" > geo "CUTLASS vs cuBLAS (full model)" +. 0.2)

let test_ablation_winograd_matters () =
  let rows = Gpuperf.Ablation.run ~device:Gpuperf.Device.titan_v in
  let geo label =
    match List.find_opt (fun r -> r.Gpuperf.Ablation.label = label) rows with
    | Some { Gpuperf.Ablation.fig8b_geomean = Some g; _ } -> g
    | _ -> Alcotest.failf "row %s missing" label
  in
  Alcotest.(check bool) "winograd is cuDNN's edge" true
    (geo "ISAAC vs cuDNN no-winograd" > geo "ISAAC vs cuDNN (full model)")

let test_mcdc_strict_at_most_masking () =
  (* strict unique-cause can only reject pairs that masking accepts *)
  let src =
    "int F(int a, int b) { if (a > 0 || b > 0) { return 1; } return 0; }\n\
     int main() { return F(-1, -1) + F(-1, 1) + F(1, -1); }"
  in
  let tu = parse src in
  let col = Coverage.Collector.create () in
  (match fst (Fixture.run_coverage ~hooks:(Coverage.Collector.hooks col) [ tu ]) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "run: %s" e);
  let fps =
    List.filter
      (fun fp -> fp.Coverage.Instrument.fp_name = "F")
      (Coverage.Instrument.of_tu tu)
  in
  let pct mode =
    (Coverage.Collector.score_file ~mcdc_mode:mode col ~file:"x.cu" fps)
      .Coverage.Collector.mcdc_pct
  in
  Alcotest.(check bool) "strict <= masking" true (pct `Strict <= pct `Masking);
  (* for a||b with these vectors: masking covers both, strict only b *)
  Alcotest.(check (float 1e-6)) "masking full" 100.0 (pct `Masking);
  Alcotest.(check (float 1e-6)) "strict half" 50.0 (pct `Strict)

let test_complexity_convention_ablation () =
  let fns =
    Cfront.Ast.functions_of_tu
      (parse "int F(int a, int b) { if (a > 0 && b > 0 || a < -1) { return 1; } return 0; }")
  in
  let cc ssc =
    match Metrics.Complexity.of_functions ~count_short_circuit:ssc fns with
    | [ c ] -> c.Metrics.Complexity.cc
    | _ -> Alcotest.fail "one function"
  in
  Alcotest.(check int) "lizard convention" 4 (cc true);
  Alcotest.(check int) "plain mccabe" 2 (cc false)

(* ------------------------------------------------------------------ *)
(* WCET analyzability                                                   *)
(* ------------------------------------------------------------------ *)

let wcet_of src =
  match Metrics.Wcet.of_functions (Cfront.Ast.functions_of_tu (parse src)) with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_wcet_constant_loop () =
  let r = wcet_of "int F(int a) { int s = 0; for (int i = 0; i < 16; ++i) { s += a; } return s; }" in
  Alcotest.(check bool) "analyzable" true
    (r.Metrics.Wcet.classification = Metrics.Wcet.Analyzable);
  Alcotest.(check int) "one constant loop" 1 r.Metrics.Wcet.constant_loops;
  Alcotest.(check string) "bound" "O(16)" r.Metrics.Wcet.wcet_expr

let test_wcet_parametric_loop () =
  let r = wcet_of "int F(int n) { int s = 0; for (int i = 0; i < n; ++i) { s += i; } return s; }" in
  Alcotest.(check bool) "parametric" true
    (r.Metrics.Wcet.classification = Metrics.Wcet.Parametric_bound);
  Alcotest.(check string) "symbolic bound" "O(n)" r.Metrics.Wcet.wcet_expr

let test_wcet_counter_while () =
  let r = wcet_of "int F(int n) { while (n > 0) { n -= 1; } return n; }" in
  Alcotest.(check bool) "counted while is parametric" true
    (r.Metrics.Wcet.classification = Metrics.Wcet.Parametric_bound)

let test_wcet_unbounded_while () =
  let r = wcet_of "int F(float x) { float y = x; while (y > 0.5) { y = y * y; } return 1; }" in
  Alcotest.(check bool) "unanalyzable" true
    (r.Metrics.Wcet.classification = Metrics.Wcet.Unanalyzable);
  Alcotest.(check string) "unbounded" "unbounded" r.Metrics.Wcet.wcet_expr

let test_wcet_recursion_unanalyzable () =
  let r = wcet_of "int F(int n) { if (n <= 0) { return 0; } return F(n - 1); }" in
  Alcotest.(check bool) "recursive" true r.Metrics.Wcet.recursive;
  Alcotest.(check bool) "unanalyzable" true
    (r.Metrics.Wcet.classification = Metrics.Wcet.Unanalyzable)

let test_wcet_straight_line () =
  let r = wcet_of "int F(int a) { return a * 2; }" in
  Alcotest.(check string) "O(1)" "O(1)" r.Metrics.Wcet.wcet_expr

(* ------------------------------------------------------------------ *)
(* Other frameworks                                                     *)
(* ------------------------------------------------------------------ *)

let test_frameworks_generate_and_assess () =
  List.iter
    (fun (fw : Corpus.Other_frameworks.framework) ->
      if fw.Corpus.Other_frameworks.fw_name <> "Apollo" then begin
        let project =
          Corpus.Generator.generate ~seed:fw.Corpus.Other_frameworks.fw_seed
            fw.Corpus.Other_frameworks.fw_specs
        in
        let parsed = Cfront.Project.parse project in
        let diags =
          List.concat_map
            (fun pf -> pf.Cfront.Project.tu.Cfront.Ast.diags)
            parsed.Cfront.Project.files
        in
        Alcotest.(check (list string))
          (fw.Corpus.Other_frameworks.fw_name ^ " parses clean") [] diags;
        let m = Iso26262.Project_metrics.of_parsed parsed in
        let findings = Iso26262.Assess.assess_all m in
        let passed, binding =
          Iso26262.Assess.compliance_at ~asil:Iso26262.Asil.D findings
        in
        (* the framework-independence claim: non-compliant at ASIL-D, but
           the style/naming class of guidelines passes *)
        Alcotest.(check bool) "not ASIL-D compliant" true (passed < binding);
        Alcotest.(check bool) "some guidelines pass" true (passed >= 5)
      end)
    Corpus.Other_frameworks.all_frameworks

let test_framework_scale_ordering () =
  let loc specs = Corpus.Apollo_profile.total_loc specs in
  Alcotest.(check bool) "Apollo > Autoware > Udacity" true
    (loc Corpus.Apollo_profile.full > loc Corpus.Other_frameworks.autoware
     && loc Corpus.Other_frameworks.autoware > loc Corpus.Other_frameworks.udacity)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                      *)
(* ------------------------------------------------------------------ *)

let fault_outcomes = lazy (Corpus.Fault_src.run_all ())

let test_faults_all_as_expected () =
  List.iter
    (fun (o : Corpus.Fault_src.outcome) ->
      Alcotest.(check bool)
        (o.Corpus.Fault_src.scenario.Corpus.Fault_src.sc_name ^ " behaves as predicted")
        true o.Corpus.Fault_src.as_expected)
    (Lazy.force fault_outcomes)

let test_faults_summary () =
  let realized, expected, as_expected, total =
    Corpus.Fault_src.summary (Lazy.force fault_outcomes)
  in
  Alcotest.(check int) "every undefended scenario faults" expected realized;
  Alcotest.(check int) "every scenario as expected" total as_expected;
  Alcotest.(check bool) "both directions covered" true
    (expected > 0 && expected < total)

let test_faults_detail_mentions_memory () =
  List.iter
    (fun (o : Corpus.Fault_src.outcome) ->
      if o.Corpus.Fault_src.faulted then
        Alcotest.(check bool) "fault detail names the memory operation" true
          (Util.Strutil.contains_sub ~sub:"out of bounds" o.Corpus.Fault_src.detail))
    (Lazy.force fault_outcomes)

(* ------------------------------------------------------------------ *)
(* Export formats                                                       *)
(* ------------------------------------------------------------------ *)

let sample_table () =
  Util.Table.add_rows
    (Util.Table.make ~title:"T" ~header:[ "name"; "value" ]
       ~aligns:[ Util.Table.Left; Util.Table.Right ] ())
    [ [ "plain"; "1" ]; [ "with,comma"; "2" ]; [ "with|pipe"; "3" ] ]

let test_markdown_export () =
  let s = Util.Table.render_markdown (sample_table ()) in
  Alcotest.(check bool) "has header separator" true
    (Util.Strutil.contains_sub ~sub:"| --- | ---: |" s);
  Alcotest.(check bool) "pipe escaped" true
    (Util.Strutil.contains_sub ~sub:"with\\|pipe" s)

let test_csv_export () =
  let s = Util.Table.render_csv (sample_table ()) in
  Alcotest.(check bool) "comma field quoted" true
    (Util.Strutil.contains_sub ~sub:"\"with,comma\"" s);
  Alcotest.(check int) "four lines" 4
    (List.length (List.filter (fun l -> l <> "") (Util.Strutil.lines s)))

let test_render_as_dispatch () =
  let t = sample_table () in
  Alcotest.(check bool) "text" true
    (Util.Table.render_as Util.Table.Text t = Util.Table.render t);
  Alcotest.(check bool) "csv" true
    (Util.Table.render_as Util.Table.Csv t = Util.Table.render_csv t)

(* ------------------------------------------------------------------ *)
(* Mini AD pipeline (Figure 1 as a running system)                      *)
(* ------------------------------------------------------------------ *)

let pipeline_run =
  lazy
    (let tus = Corpus.Pipeline_src.parse_all () in
     let measured = List.map fst Corpus.Pipeline_src.measured_files in
     (tus, Cudasim.Runner.run ~entry:Corpus.Pipeline_src.entry ~measured tus))

let test_pipeline_parses_and_runs () =
  let tus, result = Lazy.force pipeline_run in
  List.iter
    (fun (tu : Cfront.Ast.tu) ->
      Alcotest.(check (list string)) (tu.Cfront.Ast.tu_file ^ " clean") []
        tu.Cfront.Ast.diags)
    tus;
  match result.Cudasim.Runner.exit_value with
  | Ok v ->
    (* the safety property: the planned corridor avoids predicted cells *)
    Alcotest.(check int64) "zero collisions over 12 ticks" 0L
      (Coverage.Value.as_int v)
  | Error e -> Alcotest.failf "pipeline failed: %s" e

let test_pipeline_output () =
  let _, result = Lazy.force pipeline_run in
  Alcotest.(check bool) "telemetry printed" true
    (Util.Strutil.contains_sub ~sub:"ticks=12 collisions=0"
       result.Cudasim.Runner.output)

let test_pipeline_coverage_high () =
  let _, result = Lazy.force pipeline_run in
  let stmt, _, _ = Coverage.Collector.averages result.Cudasim.Runner.files in
  (* the closed loop exercises nearly everything: unlike YOLO's cold
     error paths, a control loop covers its own logic *)
  Alcotest.(check bool) "statement coverage above 90%" true (stmt > 90.0)

let test_pipeline_cross_file_types () =
  (* Project.parse must resolve struct names across files without headers *)
  let files =
    List.map
      (fun (path, content) ->
        { Cfront.Project.path; modname = "mini"; header = false; content })
      Corpus.Pipeline_src.files
  in
  let project =
    Cfront.Project.make ~name:"mini"
      [ { Cfront.Project.m_name = "mini"; m_files = files } ]
  in
  let parsed = Cfront.Project.parse project in
  Alcotest.(check int) "all nine functions found" 9
    (List.length (Cfront.Project.all_functions parsed))

(* ------------------------------------------------------------------ *)
(* Scheduling (response-time analysis)                                  *)
(* ------------------------------------------------------------------ *)

let test_rta_default_schedulable () =
  let a = Iso26262.Scheduling.analyze (Iso26262.Scheduling.ad_task_set ()) in
  Alcotest.(check bool) "GPU perception fits" true a.Iso26262.Scheduling.all_schedulable;
  Alcotest.(check bool) "utilization below 1" true
    (a.Iso26262.Scheduling.total_utilization < 1.0)

let test_rta_cpu_perception_fails () =
  let a =
    Iso26262.Scheduling.analyze
      (Iso26262.Scheduling.ad_task_set ~perception_wcet_ms:295.0 ())
  in
  Alcotest.(check bool) "CPU BLAS perception misses deadlines" false
    a.Iso26262.Scheduling.all_schedulable

let test_rta_response_ordering () =
  let a = Iso26262.Scheduling.analyze (Iso26262.Scheduling.ad_task_set ()) in
  List.iter
    (fun (r : Iso26262.Scheduling.task_result) ->
      if r.Iso26262.Scheduling.schedulable then begin
        Alcotest.(check bool) "response >= wcet" true
          (r.Iso26262.Scheduling.response_ms
           >= r.Iso26262.Scheduling.task.Iso26262.Scheduling.wcet_ms -. 1e-9);
        Alcotest.(check bool) "response <= deadline" true
          (r.Iso26262.Scheduling.response_ms
           <= r.Iso26262.Scheduling.task.Iso26262.Scheduling.period_ms +. 1e-9)
      end)
    a.Iso26262.Scheduling.tasks

let test_rta_exact_fixed_point () =
  (* two tasks with known response times: C1=1,T1=4; C2=2,T2=10 ->
     R2 = 2 + ceil(R2/4)*1 ; fixed point at R2 = 3 *)
  let tasks =
    [ { Iso26262.Scheduling.t_name = "hi"; period_ms = 4.0; wcet_ms = 1.0 };
      { Iso26262.Scheduling.t_name = "lo"; period_ms = 10.0; wcet_ms = 2.0 } ]
  in
  let a = Iso26262.Scheduling.analyze tasks in
  let lo =
    List.find
      (fun (r : Iso26262.Scheduling.task_result) ->
        r.Iso26262.Scheduling.task.Iso26262.Scheduling.t_name = "lo")
      a.Iso26262.Scheduling.tasks
  in
  Alcotest.(check (float 1e-9)) "textbook fixed point" 3.0
    lo.Iso26262.Scheduling.response_ms

(* ------------------------------------------------------------------ *)
(* Traceability                                                         *)
(* ------------------------------------------------------------------ *)

let small_findings =
  lazy
    (let parsed =
       Cfront.Project.parse
         (Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small)
     in
     let m = Iso26262.Project_metrics.of_parsed parsed in
     (m, Iso26262.Assess.assess_all m))

let test_traceability_covers_all_requirements () =
  let _, findings = Lazy.force small_findings in
  let traces = Iso26262.Traceability.trace findings in
  let traced_reqs =
    Util.Stats.sum_int
      (List.map (fun g -> List.length g.Iso26262.Traceability.reqs) traces)
  in
  Alcotest.(check int) "every requirement appears under its goal"
    (List.length Iso26262.Traceability.requirements)
    traced_reqs

let test_traceability_no_goal_verified () =
  let _, findings = Lazy.force small_findings in
  let traces = Iso26262.Traceability.trace findings in
  Alcotest.(check bool) "no safety goal fully verified (the paper's verdict)" true
    (List.for_all (fun g -> not g.Iso26262.Traceability.goal_verified) traces)

let test_traceability_allocation_complete () =
  let m, _ = Lazy.force small_findings in
  Alcotest.(check int) "all requirements allocated to existing modules" 0
    (List.length (Iso26262.Traceability.unallocated_requirements m))

let test_traceability_render () =
  let _, findings = Lazy.force small_findings in
  let s = Iso26262.Traceability.render (Iso26262.Traceability.trace findings) in
  Alcotest.(check bool) "mentions goals" true (Util.Strutil.contains_sub ~sub:"G1" s);
  Alcotest.(check bool) "mentions verdict tags" true
    (Util.Strutil.contains_sub ~sub:"T8." s)

let () =
  Alcotest.run "extensions"
    [
      ( "halstead",
        [
          Alcotest.test_case "token counts" `Quick test_halstead_counts;
          Alcotest.test_case "volume grows" `Quick test_halstead_volume_grows;
          Alcotest.test_case "MI bounds and ordering" `Quick test_mi_bounds_and_ordering;
          Alcotest.test_case "module report" `Quick test_mi_module_report;
          Alcotest.test_case "of_func equals the line filter" `Quick
            test_halstead_of_func_matches_filter;
        ] );
      ( "brook-auto",
        [
          Alcotest.test_case "pure stream" `Quick test_brook_pure_stream;
          Alcotest.test_case "needs gather" `Quick test_brook_needs_gather;
          Alcotest.test_case "scatter blocks" `Quick test_brook_scatter_blocks;
          Alcotest.test_case "unbounded loop blocks" `Quick test_brook_unbounded_loop_blocks;
          Alcotest.test_case "dynamic alloc blocks" `Quick test_brook_dynamic_alloc_blocks;
          Alcotest.test_case "corpus summary" `Quick test_brook_corpus_summary;
        ] );
      ( "cuda-census",
        [
          Alcotest.test_case "counts" `Quick test_census_counts;
          Alcotest.test_case "unguarded kernel" `Quick test_census_unguarded_kernel;
          Alcotest.test_case "add" `Quick test_census_add;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "pipeline structure" `Quick test_pipeline_structure;
          Alcotest.test_case "closed count" `Quick test_taxonomy_closed_count;
          Alcotest.test_case "renders" `Quick test_taxonomy_renders;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "single tile hurts cuBLAS" `Quick
            test_ablation_single_tile_hurts_cublas;
          Alcotest.test_case "winograd matters" `Quick test_ablation_winograd_matters;
          Alcotest.test_case "strict vs masking MC/DC" `Quick test_mcdc_strict_at_most_masking;
          Alcotest.test_case "complexity convention" `Quick
            test_complexity_convention_ablation;
        ] );
      ( "wcet",
        [
          Alcotest.test_case "constant loop" `Quick test_wcet_constant_loop;
          Alcotest.test_case "parametric loop" `Quick test_wcet_parametric_loop;
          Alcotest.test_case "counter while" `Quick test_wcet_counter_while;
          Alcotest.test_case "unbounded while" `Quick test_wcet_unbounded_while;
          Alcotest.test_case "recursion" `Quick test_wcet_recursion_unanalyzable;
          Alcotest.test_case "straight line" `Quick test_wcet_straight_line;
        ] );
      ( "frameworks",
        [
          Alcotest.test_case "generate and assess" `Slow test_frameworks_generate_and_assess;
          Alcotest.test_case "scale ordering" `Quick test_framework_scale_ordering;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "all as expected" `Quick test_faults_all_as_expected;
          Alcotest.test_case "summary" `Quick test_faults_summary;
          Alcotest.test_case "fault detail" `Quick test_faults_detail_mentions_memory;
        ] );
      ( "export",
        [
          Alcotest.test_case "markdown" `Quick test_markdown_export;
          Alcotest.test_case "csv" `Quick test_csv_export;
          Alcotest.test_case "dispatch" `Quick test_render_as_dispatch;
        ] );
      ( "mini-pipeline",
        [
          Alcotest.test_case "parses and runs collision-free" `Quick
            test_pipeline_parses_and_runs;
          Alcotest.test_case "telemetry" `Quick test_pipeline_output;
          Alcotest.test_case "high coverage" `Quick test_pipeline_coverage_high;
          Alcotest.test_case "cross-file types" `Quick test_pipeline_cross_file_types;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "default schedulable" `Quick test_rta_default_schedulable;
          Alcotest.test_case "cpu perception fails" `Quick test_rta_cpu_perception_fails;
          Alcotest.test_case "response ordering" `Quick test_rta_response_ordering;
          Alcotest.test_case "exact fixed point" `Quick test_rta_exact_fixed_point;
        ] );
      ( "cert-plan",
        [
          Alcotest.test_case "orders by effort then size" `Quick (fun () ->
              let _, findings = Lazy.force small_findings in
              let plan = Iso26262.Cert_plan.build findings in
              let ranks =
                List.map
                  (fun (i : Iso26262.Cert_plan.work_item) ->
                    Iso26262.Cert_plan.effort_rank i.Iso26262.Cert_plan.effort)
                  plan.Iso26262.Cert_plan.items
              in
              Alcotest.(check (list int)) "non-decreasing effort"
                (List.sort compare ranks) ranks);
          Alcotest.test_case "only failing findings planned" `Quick (fun () ->
              let _, findings = Lazy.force small_findings in
              let plan = Iso26262.Cert_plan.build findings in
              List.iter
                (fun (i : Iso26262.Cert_plan.work_item) ->
                  Alcotest.(check bool) "not a pass" true
                    (i.Iso26262.Cert_plan.finding.Iso26262.Assess.verdict
                     <> Iso26262.Assess.Pass))
                plan.Iso26262.Cert_plan.items);
          Alcotest.test_case "gpu topics are research class" `Quick (fun () ->
              let topic =
                Option.get
                  (Iso26262.Guidelines.find ~table:Iso26262.Guidelines.Unit_design
                     ~index:6)
              in
              Alcotest.(check bool) "pointers need research" true
                (Iso26262.Cert_plan.effort_of_topic topic
                 = Iso26262.Cert_plan.Research_needed));
          Alcotest.test_case "render mentions classes" `Quick (fun () ->
              let _, findings = Lazy.force small_findings in
              let s = Iso26262.Cert_plan.render (Iso26262.Cert_plan.build findings) in
              Alcotest.(check bool) "research row" true
                (Util.Strutil.contains_sub ~sub:"research needed" s));
        ] );
      ( "misra-deviations",
        [
          Alcotest.test_case "deviation suppresses violations" `Quick (fun () ->
              let src = "int F(int a) { goto out; out: return a; }" in
              let pf =
                { Cfront.Project.file =
                    { Cfront.Project.path = "d.cc"; modname = "d"; header = false;
                      content = src };
                  tu = Cfront.Parser.parse_file ~file:"d.cc" src }
              in
              let ctx = Fixture.context_of_files [ pf ] in
              let dev =
                { Misra.Registry.dev_rule = "15.1";
                  justification = "legacy error-handling exit, reviewed";
                  max_instances = None }
              in
              let plain = Misra.Registry.run ctx in
              let with_dev = Misra.Registry.run ~deviations:[ dev ] ctx in
              Alcotest.(check bool) "fewer violations with deviation" true
                (with_dev.Misra.Registry.total_violations
                 < plain.Misra.Registry.total_violations);
              match with_dev.Misra.Registry.deviations with
              | [ o ] ->
                Alcotest.(check int) "one suppressed" 1 o.Misra.Registry.suppressed;
                Alcotest.(check bool) "accepted" false o.Misra.Registry.rejected
              | _ -> Alcotest.fail "one outcome expected");
          Alcotest.test_case "bounded deviation leaves residual" `Quick (fun () ->
              let src =
                "int F(int a) { goto one; one: goto two; two: return a; }"
              in
              let pf =
                { Cfront.Project.file =
                    { Cfront.Project.path = "d.cc"; modname = "d"; header = false;
                      content = src };
                  tu = Cfront.Parser.parse_file ~file:"d.cc" src }
              in
              let ctx = Fixture.context_of_files [ pf ] in
              let dev =
                { Misra.Registry.dev_rule = "15.1"; justification = "one allowed";
                  max_instances = Some 1 }
              in
              let r = Misra.Registry.run ~deviations:[ dev ] ctx in
              match r.Misra.Registry.deviations with
              | [ o ] ->
                Alcotest.(check int) "suppressed" 1 o.Misra.Registry.suppressed;
                Alcotest.(check int) "residual" 1 o.Misra.Registry.residual
              | _ -> Alcotest.fail "one outcome expected");
          Alcotest.test_case "mandatory rules cannot be deviated" `Quick (fun () ->
              let src = "int F(int a) { int x; return a + x; }" in
              let pf =
                { Cfront.Project.file =
                    { Cfront.Project.path = "d.cc"; modname = "d"; header = false;
                      content = src };
                  tu = Cfront.Parser.parse_file ~file:"d.cc" src }
              in
              let ctx = Fixture.context_of_files [ pf ] in
              let dev =
                { Misra.Registry.dev_rule = "9.1"; justification = "nope";
                  max_instances = None }
              in
              let r = Misra.Registry.run ~deviations:[ dev ] ctx in
              (match r.Misra.Registry.deviations with
               | [ o ] -> Alcotest.(check bool) "rejected" true o.Misra.Registry.rejected
               | _ -> Alcotest.fail "one outcome expected");
              Alcotest.(check bool) "violation kept" true
                (r.Misra.Registry.total_violations > 0));
        ] );
      ( "traceability",
        [
          Alcotest.test_case "covers all requirements" `Quick
            test_traceability_covers_all_requirements;
          Alcotest.test_case "no goal verified" `Quick test_traceability_no_goal_verified;
          Alcotest.test_case "allocation complete" `Quick
            test_traceability_allocation_complete;
          Alcotest.test_case "render" `Quick test_traceability_render;
        ] );
    ]
