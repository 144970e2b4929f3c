(** End-to-end audit pipeline — the library's top-level entry point.

    [run] generates (or accepts) a corpus, extracts metrics, executes the
    coverage experiments, and assesses every guideline; [render] prints
    the complete report in the paper's artifact order.  The CLI, the
    examples and the benchmark harness are thin wrappers over these. *)

type t = {
  parsed : Cfront.Project.parsed;
  metrics : Project_metrics.t;
  coding : Assess.finding list;  (** paper Table 1 verdicts *)
  architecture : Assess.finding list;  (** paper Table 2 verdicts *)
  unit_design : Assess.finding list;  (** paper Table 3 verdicts *)
  yolo_coverage : Coverage.Collector.file_coverage list;  (** Figure 5 *)
  yolo_run_output : string;  (** stdout of the embedded test scenarios *)
  stencil_coverage : Coverage.Collector.file_coverage list;  (** Figure 6 *)
  observations : Observations.t list;
  journal : Provenance.finding list;
      (** this run's evidence journal, canonical order (the audit resets
          the global journal at the start of [run]) *)
}

(** Run the Figure 5 experiment alone: parse the embedded YOLO sources,
    execute the real-scenario tests, score coverage. *)
val run_yolo_coverage :
  unit ->
  Coverage.Collector.file_coverage list
  * string
  * (Coverage.Value.t, string) result

(** Run the Figure 6 experiment alone. *)
val run_stencil_coverage :
  unit -> Coverage.Collector.file_coverage list * (Coverage.Value.t, string) result

(** Audit a corpus.  Defaults: [seed 2019], the paper-scale Apollo
    profile, no GPU ratios (Observation 12 then
    reports over an empty set).  [project] supplies the source tree
    directly (edited trees for incremental audits); [seed]/[specs] then
    only label the run.  Raises [Failure] if an embedded coverage
    scenario fails to execute — that would mean the toolchain itself is
    broken.

    When the global artifact cache is enabled ([Cache.set_global] /
    [--cache DIR]), the run first sweeps the artifacts of paths that
    left the tree ([Cache.sweep]), then serves every artifact whose
    content key matches warm and recomputes the rest.  The dataflow and
    interproc producers always run (their hits replay journal
    findings); the rule and core-metric artifacts are then looked up on
    the calling domain, and only if one of them misses are the units
    forced and the rest of the rule context built, once, for MISRA and
    the metrics to share.  A fully warm run therefore reads no parse
    tree ([t.parsed]'s units are read when a caller asks for them,
    {!Cfront.Project.tu}).  The contract — enforced by
    [test/test_cache_diff.ml] — is that report bytes, the evidence
    journal and every finding id are identical to a cold jobs=1 run. *)
val run :
  ?seed:int ->
  ?specs:Corpus.Apollo_profile.module_spec list ->
  ?open_vs_closed:(string * float) list ->
  ?project:Cfront.Project.t ->
  unit ->
  t

(** The 25 findings of all three tables, in table order. *)
val all_findings : t -> Assess.finding list

(** The complete report: Figure 3 table, the three guideline tables,
    Figures 5 and 6 coverage, Observations 1-14, and the per-ASIL
    compliance summary. *)
val render : t -> string
