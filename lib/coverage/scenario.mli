(** Scenario-parallel coverage execution.

    A scenario is one independent dynamic experiment: a set of
    translation units plus the entry points to drive through them, in
    order, inside one fresh environment with its own
    {!Collector}.  Because scenarios share no mutable state, {!run_all}
    fans them out over the worker pool ([Telemetry.parallel_map], so
    jobs=1 is literally [List.map] — the sequential oracle) and the
    caller merges the per-scenario collectors.

    {b Merge exactness.}  The merge ({!Collector.merge_into}) is a
    per-key sum of hit counts plus an MC/DC vector-set union.  Both
    operators are commutative and associative, and every coverage score
    reads only key membership (count > 0) or existential properties of
    the vector set, so the merged collector is {e equal} to what one
    collector observing all scenarios sequentially would hold — exact,
    not approximate, at any jobs value and any partition of the scenario
    list.  [test/test_parallel_determinism.ml] enforces this
    differentially and [test/test_coverage.ml] property-tests random
    partitions.

    Scenarios whose hit sets must merge meaningfully must share the
    {e same parse} of the measured units (statement/decision ids are
    assigned at parse time); see [Corpus.Scenario_set]. *)

type t = {
  sc_name : string;
  sc_tus : Cfront.Ast.tu list;
      (** immutable parsed units; measured units must be physically
          shared across scenarios for their hit sets to merge *)
  sc_entries : string list;  (** entry points called in order *)
}

type outcome = {
  o_name : string;
  o_collector : Collector.t;  (** this scenario's private collector *)
  o_results : (string * (Value.t, string) result) list;
      (** per-entry results, in call order; errors are data here (the
          fault-injection scenarios expect them), not exceptions *)
  o_output : string;  (** everything the scenario printed *)
  o_steps : int;
      (** [env.steps] after the run — instructions dispatched; the
          `compile` bench's work-tier counter *)
}

(** Run one scenario in a fresh environment (telemetry hooks layered over
    the collector's) on the bytecode engine.  [?program] supplies a
    pre-compiled program for the scenario's exact tu list (compiled on
    the spot otherwise). *)
val run_one : ?program:Bytecode.program -> t -> outcome

(** Run every scenario across the pool; outcomes in input order.  At
    jobs=1 this is exactly [List.map run_one].  Each distinct parse in
    the list is compiled once up front and the immutable program is
    shared by all worker domains. *)
val run_all : t list -> outcome list

(** Union of all outcome collectors, merged in list order. *)
val merged_collector : outcome list -> Collector.t

(** Score per-file coverage for the [measured] paths of [tus] under a
    (possibly merged) collector. *)
val score :
  Collector.t ->
  measured:string list ->
  Cfront.Ast.tu list ->
  Collector.file_coverage list

(** Every failing (scenario, entry, error) triple, in outcome order. *)
val failures : outcome list -> (string * string * string) list
