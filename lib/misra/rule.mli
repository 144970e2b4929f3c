(** Rule-engine core types for the MISRA C:2012-style checker.

    Rules are pure functions from an analysis {!context} to violations;
    the context is built once per project so individual rules stay
    cheap. *)

type category = Mandatory | Required | Advisory

val category_name : category -> string

type violation = {
  rule_id : string;
  loc : Cfront.Loc.t;
  message : string;
  witness : Provenance.step list;
      (** rule-specific extra witness steps (the dataflow path, the call
          chain, the recursion cycle); the registry prepends the rule
          and violation-site steps when it journals the finding *)
}

(** The audit's project-wide facts, computed once before any rule runs
    and shared read-only by the rules on every pool worker, the metrics
    and the manifest.  No rule solves, walks globals or builds a graph:
    2.1, 2.2, 9.1, DF-1 and DF-2 read [facts]; IP-1 reads [interproc],
    17.2 and CUDA-5 its [graph]; 8.9 reads [globals], 5.3 [shadowing]. *)
type context = {
  files : Cfront.Project.parsed_file list;
  functions : Cfront.Ast.func list;  (** defined functions, all files *)
  facts : Dataflow.Analyses.func_facts list;
      (** the dataflow layer's facts, one record per function of
          [functions], in the same order *)
  interproc : Interproc.Summary.t;  (** summaries and the call graph *)
  globals : Metrics.Globals.record list;  (** mutable, in file order *)
  shadowing : Metrics.Shadowing.finding list;
}

type t = {
  id : string;  (** e.g. "15.1" (MISRA C:2012) or "CUDA-2" (extension) *)
  title : string;
  category : category;
  decidable : bool;
  check : context -> violation list;
}

val make :
  id:string ->
  title:string ->
  category:category ->
  ?decidable:bool ->
  (context -> violation list) ->
  t

(** [build_context ?facts ?interproc parsed] takes the facts and
    summaries an audit already computed; whichever is missing is
    computed here.  The globals and the shadowing findings are always
    computed here.
    @raise Invalid_argument when [facts] does not match the functions. *)
val build_context :
  ?facts:Dataflow.Analyses.func_facts list ->
  ?interproc:Interproc.Summary.t ->
  Cfront.Project.parsed ->
  context

val context_of_files : Cfront.Project.parsed_file list -> context

(** Printf-style violation constructor.  [witness] carries the
    rule-specific provenance steps (empty for purely syntactic rules —
    the registry's rule/site steps already make the journal chain
    non-empty). *)
val v :
  ?witness:Provenance.step list ->
  rule_id:string ->
  loc:Cfront.Loc.t ->
  ('a, unit, string, violation) format4 ->
  'a
