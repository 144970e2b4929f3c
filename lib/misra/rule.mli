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
    and shared read-only by the rules on every pool worker and the
    metrics.  No rule solves, walks globals or builds a graph:
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

(** The dataflow facts of every file, by path in [parsed.files] order,
    and the whole-program summary over them. *)
type producers = (string * Dataflow.Analyses.func_facts list) list * Interproc.Summary.t

(** [producers parsed] runs, in this order and under these span and
    GC-phase names, {!Dataflow.Analyses.facts_of_parsed} ([dataflow]:
    per-file cache artifacts and [dataflow] journal findings) and
    {!Interproc.Summary.analyze} over those facts ([interproc]; under a
    store one whole-tree [interproc] artifact keyed on
    {!Cfront.Project.tree_key}, whose hit replays the journal findings
    and counts no [interproc.*] work).  Both replay their findings on a
    hit, so every audit runs them.  A hit forces no unit; a miss forces
    the units it reads on the calling domain. *)
val producers : Cfront.Project.parsed -> producers

(** [context_of parsed producers] completes the context: it forces every
    unit of [parsed] on the calling domain and adds the defined
    functions, the globals and the shadowing findings ([misra.context]).
    Only a caller whose rule or metric artifact missed needs it. *)
val context_of : Cfront.Project.parsed -> producers -> context

(** [build_context parsed] is [context_of parsed (producers parsed)],
    the one producer of a rule context.  The audit, the metrics, the
    standalone MISRA run and the CLI all get their context from these
    functions, so a fact has one producer and one journal trail
    whichever entry point asked for it. *)
val build_context : Cfront.Project.parsed -> context

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
