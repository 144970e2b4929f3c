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

(* Memoize a whole coverage phase (parse embedded sources, run the
   scenarios, score).  The phase's parse, and so every collector
   fingerprint it produces, depends only on the source paths and
   contents the key hashes.  Findings recorded inside the phase
   (coverage-gap findings from scoring) are captured and replayed so the
   evidence journal stays byte-identical. *)
let cached_coverage_phase ~name ~(src_files : (string * string) list) f =
  let key =
    Cache.key ~kind:"covphase"
      [ name;
        Cache.fnv1a64
          (String.concat "\x00" (List.concat_map (fun (p, s) -> [ p; s ]) src_files)) ]
  in
  let result, findings =
    Cache.memo (Cache.global ()) ~kind:"covphase" ~key (fun () -> Provenance.collect f)
  in
  List.iter Provenance.record findings;
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

(* The audited coverage phases, each memoized whole. *)
let yolo_phase () =
  cached_coverage_phase ~name:"coverage.yolo"
    ~src_files:Corpus.Yolo_src.files run_yolo_coverage

let stencil_phase () =
  cached_coverage_phase ~name:"coverage.stencil"
    ~src_files:Corpus.Stencil_src.files run_stencil_coverage

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
    ?(open_vs_closed = []) ?project () =
  (* The audit owns the journal: every run starts it afresh, so [t.journal]
     is exactly this run's evidence. *)
  Provenance.reset ();
  Telemetry.with_span ~cat:"audit" "audit"
    ~attrs:[ ("seed", string_of_int seed);
             ("modules", string_of_int (List.length specs)) ]
  @@ fun () ->
  (* [gc_phase] wraps each pipeline stage: runtime-tier GC deltas and
     phase wall time per stage (who allocates, who collects), without
     touching the deterministic work-tier data recorded inside. *)
  let project =
    match project with
    | Some p -> p
    | None ->
      Telemetry.gc_phase "corpus" (fun () -> Corpus.Generator.generate ~seed specs)
  in
  (* Artifacts owned by paths that left the tree are swept before the
     parse, so nothing the parse stores is swept.  Every key folds the
     content it depends on, so an edited file needs no invalidation. *)
  Cache.sweep (Cache.global ()) ~name:project.Cfront.Project.p_name
    (List.map
       (fun (f : Cfront.Project.source_file) -> f.Cfront.Project.path)
       (Cfront.Project.all_files project));
  let parsed = Telemetry.gc_phase "parse" (fun () -> Cfront.Project.parse project) in
  (* Everything below the parse runs on this domain before anything
     fans out.  The dataflow and interproc producers run on every audit,
     because their hits replay journal findings; a hit forces no unit.
     The 68 rule artifacts and the [metrics] artifact are then looked
     up, and only when one of them misses is every unit forced and the
     rest of the rule context built ([Misra.Rule.context_of]): a warm
     audit reads no AST.  The context's facts are plain values, and no
     pool worker ever forces a unit: a [Lazy] forced from two domains
     raises [Lazy.Undefined], a worker blocked on a once-cell deadlocks
     a one-worker pool whose main domain waits on the queue, and a force
     inside a rule's timed region would change that rule's tick-clock
     histogram.  MISRA and the core metric walk only read the context. *)
  let ((facts, interproc) as producers) = Misra.Rule.producers parsed in
  let module_dataflow = Project_metrics.module_dataflow parsed facts in
  let rules = Misra.Registry.lookup parsed in
  let core = Project_metrics.lookup_core parsed in
  let context =
    if Misra.Registry.all_hit rules && Option.is_some core then None
    else Some (Misra.Rule.context_of parsed producers)
  in
  let misra_phase () = Misra.Registry.run_project ~lookup:rules ?context parsed in
  let metrics_phase misra =
    Telemetry.gc_phase "metrics" (fun () ->
        Project_metrics.assemble ?core ?context ~interproc ~misra ~module_dataflow parsed)
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
         read [context] and the looked-up artifacts, and merge into telemetry
         counters (mutex-protected sums, so totals are independent of
         interleaving); spans emitted on workers carry the worker's
         domain id and overlap in a [--trace] timeline.  GC deltas
         attribute each worker phase's allocation to its name
         (quick_stat is per-domain in OCaml 5's minor-heap counters,
         per-process in the major ones — a pragmatic attribution,
         flagged runtime-tier for exactly that reason). *)
      (* Each future's findings come back with its result ([collect] on
         the worker) and are journaled at the await; the journal's
         canonical export order makes the different await orders at
         different jobs values invisible. *)
      let submit_collected name f =
        Util.Pool.submit pool (fun () ->
            Provenance.collect (fun () -> Telemetry.gc_phase name f))
      in
      let await_journaled fut =
        let result, findings = Util.Pool.await fut in
        List.iter Provenance.record findings;
        result
      in
      let f_misra = submit_collected "misra" misra_phase in
      let f_yolo = submit_collected "coverage.yolo" yolo_phase in
      let f_stencil = submit_collected "coverage.stencil" stencil_phase in
      let metrics = metrics_phase (fun () -> await_journaled f_misra) in
      (metrics, await_journaled f_yolo, await_journaled f_stencil)
  in
  (match yolo_exit with
   | Ok _ -> ()
   | Error e -> failwith ("YOLO coverage scenario failed: " ^ e));
  (match stencil_exit with
   | Ok _ -> ()
   | Error e -> failwith ("stencil coverage scenario failed: " ^ e));
  let coding, architecture, unit_design, observations =
    Telemetry.with_span ~cat:"audit" "audit.assess" @@ fun () ->
    let coding = Assess.assess_coding metrics in
    let architecture = Assess.assess_architecture metrics in
    let unit_design = Assess.assess_unit_design metrics in
    record_metric_findings (coding @ architecture @ unit_design);
    ( coding,
      architecture,
      unit_design,
      Observations.of_metrics metrics ~yolo_coverage ~stencil_coverage ~open_vs_closed )
  in
  (* The journal export (sort and dedup) gets its own span, so --stats
     and --trace show it apart from the assessment.  It leaves the
     journal canonical, so the CLI's --evidence write and explain
     lookup after it sort nothing. *)
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
