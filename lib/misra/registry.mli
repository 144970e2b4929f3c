(** Rule registry, whole-project runner, and deviation records. *)

(** The C-language rules (four waves, 59 rules). *)
val c_rules : Rule.t list

(** The candidate MISRA-CUDA extension (6 rules) — the subset Observation
    3 says does not exist for GPU code. *)
val cuda_rules : Rule.t list

(** Flow-sensitive extended rules (DF-1 dead store, DF-2 propagated
    constant condition) built on the dataflow engine. *)
val dataflow_rules : Rule.t list

val all_rules : Rule.t list
val find_rule : string -> Rule.t option

(** A documented deviation — the mechanism MISRA compliance uses: a rule
    may be violated up to [max_instances] times (unbounded when [None])
    given a recorded justification.  Deviations of [Mandatory] rules are
    rejected. *)
type deviation = {
  dev_rule : string;
  justification : string;
  max_instances : int option;
}

type deviation_outcome = {
  deviation : deviation;
  suppressed : int;
  residual : int;  (** violations beyond [max_instances] *)
  rejected : bool;  (** the deviation targeted a mandatory rule *)
}

type report = {
  per_rule : (Rule.t * Rule.violation list) list;  (** after deviations *)
  total_violations : int;
  rules_violated : int;
  rules_checked : int;
  deviations : deviation_outcome list;
}

(** Run the rules over a context.  [cache_key], when the global artifact
    cache is enabled, keys each rule's stored violation list (rule id +
    the caller's content key); [run_project] derives it from the whole
    source tree. *)
val run :
  ?rules:Rule.t list ->
  ?deviations:deviation list ->
  ?cache_key:string ->
  Rule.context ->
  report

(** [run] over the whole project, keyed by its content.  Every rule's
    stored violation list is looked up first; the rules then read
    [context] when given, and otherwise the one context
    {!Rule.build_context} builds, on the calling domain, only when some
    rule missed (always, without the cache), so a warm run builds
    nothing.  A cold run without [context] therefore solves the dataflow,
    journals its findings and fills its per-file artifacts exactly as an
    audit does. *)
val run_project :
  ?rules:Rule.t list -> ?context:Rule.context -> Cfront.Project.parsed -> report

(** Violation counts per category. *)
val by_category : report -> (Rule.category * int) list

(** Rules with zero (post-deviation) violations / rules checked. *)
val rule_compliance : report -> float

val render_summary : report -> string
