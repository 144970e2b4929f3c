(** cuda4cpu-style execution: run CUDA translation units on the CPU under
    coverage instrumentation.

    This is the paper's Section 3.3 methodology: since no qualified
    coverage tool exists for GPU code, the kernels are executed on the CPU
    (the coverage engine's kernel-launch loop serializes the grid) and the CPU
    coverage tooling applies unchanged. *)

type result = {
  exit_value : (Coverage.Value.t, string) Result.t;
  output : string;
  files : Coverage.Collector.file_coverage list;
  census : Census.t;
}

(** Execute from [entry] on the bytecode engine and score coverage for
    the files in [measured] (paths); other files (test drivers) run but
    are not scored.  The units are compiled once; the audit memoizes
    the whole coverage phase, not the program. *)
let run ?origin ?(entry = "main") ~measured (tus : Cfront.Ast.tu list) =
  Telemetry.with_span ~cat:"coverage" "coverage"
    ~attrs:[ ("entry", entry); ("tus", string_of_int (List.length tus)) ]
  @@ fun () ->
  let origin = match origin with Some o -> o | None -> "run:" ^ entry in
  let collector = Coverage.Collector.create ~origin () in
  let env =
    Coverage.Runtime.create
      ~hooks:(Coverage.Runtime.telemetry_hooks ~base:(Coverage.Collector.hooks collector) ())
      ()
  in
  let exit_value =
    Coverage.Exec.run env (Coverage.Compile.compile tus) ~entry ~args:[]
  in
  let files =
    List.filter_map
      (fun (tu : Cfront.Ast.tu) ->
        if List.mem tu.Cfront.Ast.tu_file measured then
          Some
            (Coverage.Collector.score_file collector ~file:tu.Cfront.Ast.tu_file
               (Coverage.Instrument.of_tu tu))
        else None)
      tus
  in
  let census =
    List.fold_left (fun acc tu -> Census.add acc (Census.of_tu tu)) Census.zero tus
  in
  { exit_value; output = Coverage.Runtime.output env; files; census }
