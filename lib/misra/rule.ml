(** Rule-engine core types for the MISRA C:2012-style checker.

    Rules are pure functions from an analysis {!context} to a list of
    {!violation}s.  The context is built once per project, so individual
    rules stay cheap. *)

type category = Mandatory | Required | Advisory

let category_name = function
  | Mandatory -> "mandatory"
  | Required -> "required"
  | Advisory -> "advisory"

type violation = {
  rule_id : string;
  loc : Cfront.Loc.t;
  message : string;
  witness : Provenance.step list;
      (** rule-specific extra witness steps; the registry prepends the
          rule and violation-site steps when journaling *)
}

type context = {
  files : Cfront.Project.parsed_file list;
  functions : Cfront.Ast.func list;  (** defined functions, all files *)
  facts : Dataflow.Analyses.func_facts list;  (** aligned with [functions] *)
  interproc : Interproc.Summary.t;
  globals : Metrics.Globals.record list;
  shadowing : Metrics.Shadowing.finding list;
}

type t = {
  id : string;  (** e.g. "15.1" for MISRA C:2012 rule 15.1, or "CUDA-2" *)
  title : string;
  category : category;
  decidable : bool;
  check : context -> violation list;
}

let make ~id ~title ~category ?(decidable = true) check =
  { id; title; category; decidable; check }

(* The one producer of the rule context, in the audit's order: the
   dataflow layer solves every defined function (per-file cache
   artifacts and journal findings), interproc runs over those facts and
   builds the call graph, and the globals and the shadowing findings
   complete the record.  Every fact is a plain value computed here, on
   the calling domain, before the registry fans the rules out: nothing
   is forced lazily from a worker. *)
let build_context (parsed : Cfront.Project.parsed) =
  let facts =
    List.concat_map snd
      (Telemetry.gc_phase "dataflow" (fun () -> Dataflow.Analyses.facts_of_parsed parsed))
  in
  let interproc =
    Telemetry.gc_phase "interproc" (fun () -> Interproc.Summary.analyze ~facts parsed)
  in
  Telemetry.with_span ~cat:"misra" "misra.context" @@ fun () ->
  let files = parsed.Cfront.Project.files in
  let globals = Metrics.Globals.of_files files in
  { files; functions = Cfront.Project.defined_functions files; facts; interproc;
    globals; shadowing = Metrics.Shadowing.of_globals ~globals files }

let v ?(witness = []) ~rule_id ~loc fmt =
  Printf.ksprintf (fun message -> { rule_id; loc; message; witness }) fmt
