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

(** Extract everything from a parsed project: [of_parsed_with] over the
    one context {!Misra.Rule.build_context} builds, with every phase
    reading it. *)
val of_parsed : Cfront.Project.parsed -> t

(** The MISRA pass and the per-module dataflow totals, the two phases
    nothing else in the record depends on, exposed standalone because
    the ledger's traced layers (bench/ledger/run.ml) time each phase on
    its own.  The audit calls {!Misra.Registry.run_project} and
    {!assemble} itself, over the artifacts it looked up.

    [misra_of_parsed ?context parsed] is {!Misra.Registry.run_project}:
    the rules that miss the artifact store read [context], and without
    it the one context {!Misra.Rule.build_context} builds when some rule
    misses. *)
val misra_of_parsed :
  ?context:Misra.Rule.context -> Cfront.Project.parsed -> Misra.Registry.report

(** Per-module dataflow totals from the per-file facts
    {!Dataflow.Analyses.facts_of_parsed} returns, one entry per file of
    [parsed.files] in that order, each summed into its file's module.
    Reads no unit.
    @raise Invalid_argument when [facts] has another length. *)
val module_dataflow :
  Cfront.Project.parsed ->
  (string * Dataflow.Analyses.func_facts list) list ->
  (string * Dataflow.Analyses.totals) list

(** [module_dataflow] over {!Dataflow.Analyses.facts_of_parsed}, the
    producer's first step and the only one the ledger's traced
    [dataflow.solve] layer times and counts. *)
val module_dataflow_of_parsed :
  Cfront.Project.parsed -> (string * Dataflow.Analyses.totals) list

(** The [metrics] artifact of [parsed] under the global store: the
    record without its MISRA report and interproc summary, keyed on
    {!Cfront.Project.tree_key}.  [None] on a miss or without a store. *)
val lookup_core : Cfront.Project.parsed -> t option

(** [assemble ?core ?context ~interproc ~misra ~module_dataflow parsed]
    completes the record: [core] when the artifact hit, and otherwise
    the core metric walk over [context], stored as the [metrics]
    artifact.  A hit reads no unit and counts no [metrics.*] work.  The
    interproc summary is [interproc]; the MISRA report comes from the
    [misra] thunk, called last so that a pipelined caller blocks on that
    future only at the join.  The per-module dataflow totals are looked
    up in [module_dataflow], which must hold every module.
    @raise Invalid_argument when neither [core] nor [context] is given. *)
val assemble :
  ?core:t ->
  ?context:Misra.Rule.context ->
  interproc:Interproc.Summary.t ->
  misra:(unit -> Misra.Registry.report) ->
  module_dataflow:(string * Dataflow.Analyses.totals) list ->
  Cfront.Project.parsed ->
  t

(** [of_parsed_with ?context ~misra ~module_dataflow parsed] is
    {!assemble} over {!lookup_core}, with [context] (or the one
    {!Misra.Rule.build_context} builds when the ledger calls it without
    one) as the context and its interproc summary.  The uninit findings,
    the shadowing counts, the recursion list, the architecture's call
    edges and the whole-program record all come from that context. *)
val of_parsed_with :
  ?context:Misra.Rule.context ->
  misra:(unit -> Misra.Registry.report) ->
  module_dataflow:(string * Dataflow.Analyses.totals) list ->
  Cfront.Project.parsed ->
  t

val find_module : t -> string -> module_metrics option
