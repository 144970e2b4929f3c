(** One-pass metric extraction over a parsed project.

    Computes every quantity the assessment, the observations and the
    benchmark harness need; consumers read fields instead of re-walking
    hundreds of kLOC of ASTs. *)

type module_metrics = {
  modname : string;
  complexity : Metrics.Complexity.module_summary;
  loc : Metrics.Loc_metrics.counts;
  globals : int;  (** mutable (non-const, non-extern) globals *)
  multi_exit_frac : float;
  gotos : int;
  dataflow : Dataflow.Analyses.totals;
      (** flow-sensitive counts (unreachable regions, dead stores,
          uninitialized reads, propagated constant conditions) over the
          module's defined functions *)
}

type t = {
  modules : module_metrics list;
  total_loc : int;  (** physical (non-blank) lines *)
  total_functions : int;  (** defined functions *)
  over10 : int;  (** functions with cyclomatic complexity > 10 *)
  over20 : int;
  over50 : int;
  explicit_casts : int;
  implicit_conversions : int;
  globals_total : int;
  uninit_findings : Metrics.Uninit.finding list;
  shadowing_count : int;
  duplicate_globals : int;
  gotos_total : int;
  recursive_functions : string list;  (** qualified names *)
  dyn_alloc_sites : int;  (** malloc/new/cudaMalloc call sites *)
  pointer_usage : Metrics.Pointers.usage;
  multi_exit_frac : float;
  param_validation_ratio : float;  (** fraction of pointer params null-checked *)
  ignored_returns : int;
  assertions : int;
  style_findings : int;
  style_per_kloc : float;
  naming_violations : int;
  architecture : Metrics.Architecture.component list;
  namespace_depth : int;
  cuda : Cudasim.Census.t;
  misra : Misra.Registry.report;
  dataflow : Dataflow.Analyses.totals;  (** project-wide sum of the per-module counts *)
  interproc : Interproc.Summary.t;
      (** whole-program summaries: recursion cycles, call/stack depth,
          global coupling, cross-call uninit flows *)
}

(** Extract everything from a parsed project: the dataflow facts, the
    interproc summaries and the rule context are computed first, then
    every phase reads them. *)
val of_parsed : Cfront.Project.parsed -> t

(** The two heavyweight phases nothing else in the record depends on,
    exposed standalone so the pipelined audit can run MISRA on a pool
    worker concurrently with the core metric walk.

    [misra_of_parsed ?context parsed] is
    {!Misra.Registry.run_project}: the rules read [context], the rule
    context {!Audit.run} built before the fan-out.  Without it the
    context is built only when some rule misses the artifact cache
    (see {!Misra.Registry.run_deferred}). *)
val misra_of_parsed :
  ?context:Misra.Rule.context -> Cfront.Project.parsed -> Misra.Registry.report

(** Per-module dataflow totals from per-file facts (path -> facts, as
    {!Dataflow.Analyses.facts_of_parsed} returns them). *)
val module_dataflow_of_facts :
  Cfront.Project.parsed ->
  (string * Dataflow.Analyses.func_facts list) list ->
  (string * Dataflow.Analyses.totals) list

(** [module_dataflow_of_facts] over a fresh
    {!Dataflow.Analyses.facts_of_parsed}. *)
val module_dataflow_of_parsed :
  Cfront.Project.parsed -> (string * Dataflow.Analyses.totals) list

(** [of_parsed_with ?context ~misra ~module_dataflow parsed] assembles
    the record.  The MISRA report comes from the [misra] thunk, called
    last so that a pipelined caller blocks on that future only at the
    join.  The per-module dataflow totals are looked up in
    [module_dataflow], which must hold every module.  The uninit
    findings, the shadowing counts, the recursion list, the
    architecture's call edges and the whole-program record all come
    from [context]; without it, {!Misra.Rule.build_context} builds one
    here.  [of_parsed] is exactly this with every phase computed
    sequentially first. *)
val of_parsed_with :
  ?context:Misra.Rule.context ->
  misra:(unit -> Misra.Registry.report) ->
  module_dataflow:(string * Dataflow.Analyses.totals) list ->
  Cfront.Project.parsed ->
  t

val find_module : t -> string -> module_metrics option
