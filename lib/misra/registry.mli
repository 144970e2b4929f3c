(** Rule registry and whole-project runner. *)

val all_rules : Rule.t list
val find_rule : string -> Rule.t option

type report = {
  per_rule : (Rule.t * Rule.violation list) list;
  total_violations : int;
  rules_violated : int;
  rules_checked : int;
}

(** Run [rules] (default: all) over a context, without the artifact
    cache. *)
val run : ?rules:Rule.t list -> Rule.context -> report

(** [run] over the whole project, keyed by its content.  Every rule's
    stored violation list is looked up first; the rules then read
    [context] when given, and otherwise the one context
    {!Rule.build_context} builds, on the calling domain, only when some
    rule missed (always, without the cache), so a warm run builds
    nothing.  A cold run without [context] therefore solves the dataflow,
    journals its findings and fills its per-file artifacts exactly as an
    audit does. *)
val run_project : ?context:Rule.context -> Cfront.Project.parsed -> report

(** Violation counts per category. *)
val by_category : report -> (Rule.category * int) list

(** Rules with zero violations / rules checked. *)
val rule_compliance : report -> float

val render_summary : report -> string
