(** Quickstart: parse a C/CUDA snippet, measure it, check it, run it.

    Run with: [dune exec examples/quickstart.exe] *)

let source =
  {|
// A snippet in the style of Apollo's object-detection post-processing.
int clamp_detection_count(int raw_count, int limit) {
  int clamped;
  if (raw_count > limit) {
    clamped = limit;
  } else {
    clamped = raw_count;
  }
  if (clamped < 0) {
    return 0;   // second exit point: ISO 26262-6 Table 8 item 1 violation
  }
  return clamped;
}

__global__ void scale_bias_gpu(float* output, float* biases, int n, int size) {
  int offset = blockIdx.x * blockDim.x + threadIdx.x;
  if (offset < size) {
    output[offset] = output[offset] * biases[offset % n];
  }
}

int main() {
  int kept = clamp_detection_count(12, 8);
  float* host = (float*)malloc(8 * sizeof(float));
  for (int i = 0; i < 8; i++) {
    host[i] = (float)i;
  }
  float* dev;
  cudaMalloc((void**)&dev, 8 * sizeof(float));
  cudaMemcpy(dev, host, 8 * sizeof(float), 1);
  scale_bias_gpu<<<1, 8>>>(dev, dev, 4, 8);
  cudaMemcpy(host, dev, 8 * sizeof(float), 2);
  printf("kept=%d first=%f\n", kept, host[0]);
  cudaFree(dev);
  free(host);
  return kept;
}
|}

let () =
  (* 1. Parse (preprocess, lex, build the AST) a one-file project. *)
  let parsed =
    Cfront.Project.parse
      (Cfront.Project.make ~name:"demo"
         [ { Cfront.Project.m_name = "demo";
             m_files =
               [ { Cfront.Project.path = "snippet.cu"; modname = "demo";
                   header = false; content = source } ] } ])
  in
  let tu = Cfront.Project.tu (List.hd parsed.Cfront.Project.files) in
  assert (tu.Cfront.Ast.diags = []);
  Printf.printf "parsed %d functions\n\n" (List.length (Cfront.Ast.functions_of_tu tu));

  (* 2. Static metrics: cyclomatic complexity and exit points, from one
     census walk of each defined function. *)
  let defined =
    List.filter (fun f -> f.Cfront.Ast.f_body <> None) (Cfront.Ast.functions_of_tu tu)
  in
  List.iter2
    (fun fn (c : Metrics.Census.counts) ->
      Printf.printf "%-24s CC=%d  exits=%d\n" (Cfront.Ast.qualified_name fn)
        c.Metrics.Census.cc c.Metrics.Census.returns)
    defined (Metrics.Census.of_functions defined).Metrics.Census.counts;

  (* 3. Rule checking: the MISRA subset plus the CUDA extension rules. *)
  let report = Misra.Registry.run_project parsed in
  Printf.printf "\nMISRA subset: %d violations across %d rules\n"
    report.Misra.Registry.total_violations report.Misra.Registry.rules_checked;
  List.iter
    (fun ((r : Misra.Rule.t), vs) ->
      List.iter
        (fun (v : Misra.Rule.violation) ->
          Printf.printf "  [%s] %s\n" r.Misra.Rule.id v.Misra.Rule.message)
        vs)
    report.Misra.Registry.per_rule;

  (* 4. Execute under coverage: the CUDA kernel runs on the CPU. *)
  let collector = Coverage.Collector.create () in
  let env = Coverage.Runtime.create ~hooks:(Coverage.Collector.hooks collector) () in
  (match Coverage.Exec.run env (Coverage.Compile.compile [ tu ]) ~entry:"main" ~args:[] with
   | Ok v -> Printf.printf "\nprogram exited with %s\n" (Coverage.Value.to_string v)
   | Error e -> Printf.printf "\nexecution error: %s\n" e);
  print_string (Coverage.Runtime.output env);
  let fc =
    Coverage.Collector.score_file collector ~file:"snippet.cu"
      (Coverage.Instrument.of_tu tu)
  in
  Printf.printf "coverage: %.0f%% statement, %.0f%% branch, %.0f%% MC/DC\n"
    fc.Coverage.Collector.stmt_pct fc.Coverage.Collector.branch_pct
    fc.Coverage.Collector.mcdc_pct
