(** End-to-end audit pipeline: generate (or accept) a project, extract
    metrics, run the coverage experiments, and assess every guideline.

    This is the library's top-level entry point — the CLI, the examples
    and the benchmark harness are thin wrappers over [run]. *)

type t = {
  parsed : Cfront.Project.parsed;
  metrics : Project_metrics.t;
  coding : Assess.finding list;
  architecture : Assess.finding list;
  unit_design : Assess.finding list;
  yolo_coverage : Coverage.Collector.file_coverage list;
  yolo_run_output : string;
  stencil_coverage : Coverage.Collector.file_coverage list;
  observations : Observations.t list;
  journal : Provenance.finding list;
}

(* ------------------------------------------------------------------ *)
(* Incremental caching support                                          *)
(* ------------------------------------------------------------------ *)

(* Project-internal include edges: [#include "x"] resolved against the
   project's own paths.  The generated corpus includes module headers as
   "modules/<mod>/common.h" while project paths are "<mod>/common.h", so
   resolution accepts exact matches and suffix containment either way. *)
let include_deps_of_content ~paths content =
  let deps = ref [] in
  let resolve inc =
    List.iter
      (fun p ->
        if
          p = inc
          || String.ends_with ~suffix:("/" ^ p) inc
          || String.ends_with ~suffix:("/" ^ inc) p
        then deps := p :: !deps)
      paths
  in
  String.split_on_char '\n' content
  |> List.iter (fun line ->
         let line = String.trim line in
         if String.length line > 8 && String.sub line 0 8 = "#include" then
           match String.index_opt line '"' with
           | None -> ()
           | Some q0 -> (
             match String.index_from_opt line (q0 + 1) '"' with
             | None -> ()
             | Some q1 -> resolve (String.sub line (q0 + 1) (q1 - q0 - 1))));
  List.sort_uniq compare !deps

(* Dependency manifest of a parsed tree: per-file content hash plus the
   project files each file depends on — its quoted includes and the
   files defining functions it calls in [graph] (caller depends on callee: editing
   the callee's file invalidates the caller's whole-program artifacts).
   Saved after every cache-enabled audit; the next audit diffs its tree
   against it to invalidate exactly the changed files and their
   transitive reverse-dependents before consulting any artifact. *)
let manifest_of_parsed ~(graph : Cfront.Callgraph.t) (parsed : Cfront.Project.parsed) =
  let files =
    List.map (fun (pf : Cfront.Project.parsed_file) -> pf.Cfront.Project.file)
      parsed.Cfront.Project.files
  in
  let paths = List.map (fun f -> f.Cfront.Project.path) files in
  let file_of_fn = Hashtbl.create 256 in
  List.iter
    (fun (pf : Cfront.Project.parsed_file) ->
      List.iter
        (fun (fn : Cfront.Ast.func) ->
          if fn.Cfront.Ast.f_body <> None then
            Hashtbl.replace file_of_fn
              (Cfront.Ast.qualified_name fn)
              pf.Cfront.Project.file.Cfront.Project.path)
        (Cfront.Ast.functions_of_tu pf.Cfront.Project.tu))
    parsed.Cfront.Project.files;
  let call_deps = Hashtbl.create 256 in
  List.iter
    (fun (caller, callee) ->
      match (Hashtbl.find_opt file_of_fn caller, Hashtbl.find_opt file_of_fn callee) with
      | Some cf, Some ce when cf <> ce ->
        Hashtbl.replace call_deps cf
          (ce :: Option.value ~default:[] (Hashtbl.find_opt call_deps cf))
      | _ -> ())
    graph.Cfront.Callgraph.edges;
  Cache.Manifest.make
    (List.map2
       (fun (f : Cfront.Project.source_file) hash ->
         let deps =
           include_deps_of_content ~paths f.Cfront.Project.content
           @ Option.value ~default:[]
               (Hashtbl.find_opt call_deps f.Cfront.Project.path)
         in
         (f.Cfront.Project.path, hash, List.filter (fun d -> d <> f.Cfront.Project.path) deps))
       files (Cfront.Project.hashes parsed))

(* Diff the incoming tree against the stored manifest: the invalidation
   set is every changed file plus its transitive reverse-dependents
   under the OLD edges.  Because artifact keys are content-addressed, a
   stale entry can never falsely hit — the set is reported (counter
   [cache.invalidate], one per invalidated path) rather than swept, so
   reverting an edit restores the original artifacts as cache hits.
   Only artifacts owned by paths that left the tree entirely (deletes,
   the old side of a rename) are physically removed: no future tree can
   ever hit them.  Runs BEFORE the parse so the fresh artifacts the
   parse stores are never swept.  [hashes] are the files' content
   hashes in [all_files] order; returns the manifest it loaded. *)
let invalidate_against_manifest c (project : Cfront.Project.t) ~hashes =
  let hashes =
    List.map2
      (fun (f : Cfront.Project.source_file) h -> (f.Cfront.Project.path, h))
      (Cfront.Project.all_files project) hashes
  in
  match Cache.Manifest.load c ~name:project.Cfront.Project.p_name with
  | None -> None
  | Some old as loaded ->
    let inv = Cache.Manifest.invalidated ~old hashes in
    if inv <> [] then begin
      let gone =
        List.filter
          (fun p -> not (List.mem_assoc p hashes))
          (List.map (fun (e : Cache.Manifest.entry) -> e.Cache.Manifest.e_path)
             old.Cache.Manifest.entries)
      in
      let removed = if gone = [] then 0 else Cache.remove_owned c gone in
      Telemetry.add "cache.invalidate" (List.length inv);
      Util.Log.info
        "cache: %d changed/dependent file(s) invalidated, %d orphaned \
         artifact(s) removed"
        (List.length inv) removed
    end;
    loaded

(* Memoize a whole coverage phase (parse embedded sources, run the
   scenarios, score).  The phase's parse, and so every collector
   fingerprint it produces, depends only on the source paths and
   contents the key hashes.  Findings recorded inside the phase
   (coverage-gap findings from scoring) are captured and replayed so the
   evidence journal stays byte-identical. *)
let cached_coverage_phase ~name ~(src_files : (string * string) list) f =
  match Cache.global () with
  | None -> f ()
  | Some c ->
    let key =
      Cache.key ~kind:"covphase"
        [ name;
          Cache.fnv1a64
            (String.concat "\x00"
               (List.concat_map (fun (p, s) -> [ p; s ]) src_files)) ]
    in
    let result, findings =
      Cache.memo c ~kind:"covphase" ~key (fun () -> Provenance.collect f)
    in
    Provenance.absorb findings;
    result

let run_yolo_coverage () =
  let tus = Corpus.Yolo_src.parse_all () in
  let measured = List.map fst Corpus.Yolo_src.measured_files in
  let result = Cudasim.Runner.run ~entry:Corpus.Yolo_src.entry ~measured tus in
  (result.Cudasim.Runner.files, result.Cudasim.Runner.output,
   result.Cudasim.Runner.exit_value)

let run_stencil_coverage () =
  let tus = Corpus.Stencil_src.parse_all () in
  let measured = List.map fst Corpus.Stencil_src.measured_files in
  let result = Cudasim.Runner.run ~entry:Corpus.Stencil_src.entry ~measured tus in
  (result.Cudasim.Runner.files, result.Cudasim.Runner.exit_value)

(* The audited coverage phases, memoized whole when the cache is on. *)
let yolo_phase () =
  cached_coverage_phase ~name:"coverage.yolo"
    ~src_files:Corpus.Yolo_src.files run_yolo_coverage

let stencil_phase () =
  cached_coverage_phase ~name:"coverage.stencil"
    ~src_files:Corpus.Stencil_src.files run_stencil_coverage

(** [run ()] audits the default full-scale Apollo-profile corpus.

    [open_vs_closed] supplies the open/closed library performance ratios
    for Observation 12 (computed by the [gpuperf] library; passing them in
    keeps this library independent of the performance model). *)
(* Journal a verdict that falls short of its guideline threshold; the
   witness quotes the topic, the measured evidence sentence and the
   headline number the assessment compared. *)
let record_metric_findings (findings : Assess.finding list) =
  List.iter
    (fun (f : Assess.finding) ->
      match f.Assess.verdict with
      | Assess.Pass | Assess.Not_applicable -> ()
      | (Assess.Partial | Assess.Fail) as verdict ->
        let topic = f.Assess.topic in
        Provenance.record
          (Provenance.make ~kind:"metric" ~analysis:(Guidelines.topic_id topic)
             ~message:
               (Printf.sprintf "%s: %s" (Assess.verdict_name verdict)
                  topic.Guidelines.title)
             ~witness:
               ([
                  Provenance.step "topic" "%s, topic %d: %s"
                    (Guidelines.table_name topic.Guidelines.table)
                    topic.Guidelines.index topic.Guidelines.title;
                  Provenance.step "evidence" "%s" f.Assess.evidence;
                ]
                @
                match f.Assess.measured with
                | Some x -> [ Provenance.step "measured" "headline value %g" x ]
                | None -> [])
             ()))
    findings

let run ?(seed = 2019) ?(specs = Corpus.Apollo_profile.full)
    ?(thresholds = Assess.default_thresholds) ?(open_vs_closed = []) ?project () =
  (* The audit owns the journal: every run starts it afresh, so [t.journal]
     is exactly this run's evidence. *)
  Provenance.reset ();
  Telemetry.with_span ~cat:"audit" "audit"
    ~attrs:[ ("seed", string_of_int seed);
             ("modules", string_of_int (List.length specs)) ]
  @@ fun () ->
  let cache = Cache.global () in
  (* [gc_phase] wraps each pipeline stage: runtime-tier GC deltas and
     phase wall time per stage (who allocates, who collects), without
     touching the deterministic work-tier data recorded inside. *)
  let project =
    match project with
    | Some p -> p
    | None ->
      Telemetry.gc_phase "corpus" (fun () -> Corpus.Generator.generate ~seed specs)
  in
  (* With a store, each file's content is hashed once, here, and every
     key of the run derives from these hashes.  Invalidation happens
     before the parse, against the previous run's manifest: changed
     files and their transitive reverse-dependents lose their
     artifacts, everything else stays warm. *)
  let hashes = Option.map (fun _ -> Cfront.Project.file_hashes project) cache in
  let loaded =
    match (cache, hashes) with
    | Some c, Some hashes -> invalidate_against_manifest c project ~hashes
    | _ -> None
  in
  let parsed =
    Telemetry.gc_phase "parse" (fun () -> Cfront.Project.parse ?hashes project)
  in
  (* The producers run once, on this domain, before anything fans out:
     [Misra.Rule.build_context] solves the dataflow, runs interproc and
     adds the globals and the shadowing findings.  MISRA, the core
     metric walk and the manifest only read the context.  Its facts are
     plain values rather than lazy ones or once-cells: a lazy forced
     from two domains raises [Lazy.Undefined], a worker blocked on a
     once-cell deadlocks a one-worker pool whose main domain waits on
     the queue, and a solve forced inside a rule's timed region would
     change that rule's tick-clock histogram. *)
  let context = Misra.Rule.build_context parsed in
  (* Record the new tree's manifest for the next run's diff, unless the
     one just loaded already is. *)
  (match cache with
   | Some c ->
     let manifest =
       manifest_of_parsed ~graph:context.Misra.Rule.interproc.Interproc.Summary.graph parsed
     in
     if loaded <> Some manifest then
       Cache.Manifest.save c ~name:project.Cfront.Project.p_name manifest
   | None -> ());
  let module_dataflow = Project_metrics.module_dataflow parsed context.Misra.Rule.facts in
  let misra_phase () = Project_metrics.misra_of_parsed ~context parsed in
  let metrics_phase misra =
    Telemetry.gc_phase "metrics" (fun () ->
        Project_metrics.of_parsed_with ~context ~misra ~module_dataflow parsed)
  in
  let metrics, (yolo_coverage, yolo_run_output, yolo_exit),
      (stencil_coverage, stencil_exit) =
    match Util.Pool.global () with
    | None ->
      (* jobs=1: the exact sequential oracle, phase after phase. *)
      let misra = Telemetry.gc_phase "misra" misra_phase in
      let metrics = metrics_phase (fun () -> misra) in
      let yolo = Telemetry.gc_phase "coverage.yolo" yolo_phase in
      let stencil = Telemetry.gc_phase "coverage.stencil" stencil_phase in
      (metrics, yolo, stencil)
    | Some pool ->
      (* Pipelined phases: misra and the two coverage scenarios fan out
         to pool workers while the main domain runs the core metric
         walk, and everything joins before report assembly.  Phases only
         read [parsed] and [context] and merge into telemetry
         counters (mutex-protected sums, so totals are independent of
         interleaving); spans emitted on workers carry the worker's
         domain id and overlap in a [--trace] timeline.  GC deltas
         attribute each worker phase's allocation to its name
         (quick_stat is per-domain in OCaml 5's minor-heap counters,
         per-process in the major ones — a pragmatic attribution,
         flagged runtime-tier for exactly that reason). *)
      (* Each future's findings come back with its result ([collect] on
         the worker) and are absorbed at the await; the journal's
         canonical export order makes the different await orders at
         different jobs values invisible. *)
      let submit_collected name f =
        Util.Pool.submit pool (fun () ->
            Provenance.collect (fun () -> Telemetry.gc_phase name f))
      in
      let await_absorb fut =
        let result, findings = Util.Pool.await fut in
        Provenance.absorb findings;
        result
      in
      let f_misra = submit_collected "misra" misra_phase in
      let f_yolo = submit_collected "coverage.yolo" yolo_phase in
      let f_stencil = submit_collected "coverage.stencil" stencil_phase in
      let metrics = metrics_phase (fun () -> await_absorb f_misra) in
      (metrics, await_absorb f_yolo, await_absorb f_stencil)
  in
  (match yolo_exit with
   | Ok _ -> ()
   | Error e -> failwith ("YOLO coverage scenario failed: " ^ e));
  (match stencil_exit with
   | Ok _ -> ()
   | Error e -> failwith ("stencil coverage scenario failed: " ^ e));
  let coding, architecture, unit_design, observations =
    Telemetry.with_span ~cat:"audit" "audit.assess" @@ fun () ->
    let coding = Assess.assess_coding ~th:thresholds metrics in
    let architecture = Assess.assess_architecture ~th:thresholds metrics in
    let unit_design = Assess.assess_unit_design ~th:thresholds metrics in
    record_metric_findings (coding @ architecture @ unit_design);
    ( coding,
      architecture,
      unit_design,
      Observations.of_metrics metrics ~yolo_coverage ~stencil_coverage ~open_vs_closed )
  in
  (* The journal export (sort and dedup) gets its own span, so --stats
     and --trace show it apart from the assessment. *)
  let journal = Telemetry.with_span ~cat:"audit" "provenance.journal" Provenance.findings in
  {
    parsed;
    metrics;
    coding;
    architecture;
    unit_design;
    yolo_coverage;
    yolo_run_output;
    stencil_coverage;
    observations;
    journal;
  }

let all_findings audit = audit.coding @ audit.architecture @ audit.unit_design

(** Render the complete audit as the paper's sequence of artifacts. *)
let render audit =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Report.render_module_summaries audit.metrics);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Report.render_dataflow audit.metrics);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Report.render_interproc audit.metrics.Project_metrics.interproc);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Report.render_findings
       ~title:"Paper Table 1: modeling and coding guidelines (ISO 26262-6 Table 1)"
       audit.coding);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Report.render_findings
       ~title:"Paper Table 2: architectural design (ISO 26262-6 Table 3)"
       audit.architecture);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Report.render_findings
       ~title:"Paper Table 3: unit design and implementation (ISO 26262-6 Table 8)"
       audit.unit_design);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Report.render_coverage ~title:"Figure 5: object detection (YOLO) coverage"
       audit.yolo_coverage);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Report.render_coverage
       ~title:"Figure 6: CUDA stencils run on CPU (cuda4cpu) coverage"
       audit.stencil_coverage);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Report.render_observations audit.observations);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Traceability.render_tool_evidence ~journal:audit.journal
       ~observations:audit.observations audit.metrics);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Report.render_compliance (all_findings audit));
  Buffer.contents buf
