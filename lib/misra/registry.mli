(** Rule registry and whole-project runner. *)

val all_rules : Rule.t list
val find_rule : string -> Rule.t option

type report = {
  per_rule : (Rule.t * Rule.violation list) list;
  total_violations : int;
  rules_violated : int;
  rules_checked : int;
}

(** Run [rules] (default: all) over a context.  A bare context has no
    content key, so the run reads and writes no artifact. *)
val run : ?rules:Rule.t list -> Rule.context -> report

(** The per-rule artifacts of a whole-project run, looked up.  Each
    holds the rule's journal findings with their ids computed; a hit
    derives its violations from them (location, message, and the
    witness without the leading rule and site steps) and journals them
    as stored. *)
type lookup

(** Look every rule's artifact up under the global store, keyed on
    {!Cfront.Project.content_key}.  A rule that misses journals its
    findings and then stores them there.  Without a store every rule
    misses. *)
val lookup : Cfront.Project.parsed -> lookup

(** Every rule hit: a run over this lookup reads no rule context. *)
val all_hit : lookup -> bool

(** [run] over the whole project, keyed by its content.  The rules are
    looked up first ([lookup], or {!lookup} when it is not given); the
    rules that missed then read [context] when given, and otherwise the
    one context {!Rule.build_context} builds, on the calling domain,
    only when some rule missed (always, without a store), so a warm
    run builds nothing.  A cold run without [context] therefore solves
    the dataflow, journals its findings and fills its per-file artifacts
    exactly as an audit does. *)
val run_project :
  ?lookup:lookup -> ?context:Rule.context -> Cfront.Project.parsed -> report

(** Violation counts per category. *)
val by_category : report -> (Rule.category * int) list

(** Rules with zero violations / rules checked. *)
val rule_compliance : report -> float

val render_summary : report -> string
