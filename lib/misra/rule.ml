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

(* Every fact is a plain value computed here, on the calling domain,
   before the registry fans the rules out: nothing is forced lazily from
   a worker. *)
let make_context ?facts ?interproc files =
  let functions = Cfront.Project.defined_functions files in
  let facts =
    match facts with
    | Some facts ->
      ignore (Dataflow.Analyses.pair_facts functions facts);
      facts
    | None -> Telemetry.parallel_map Dataflow.Analyses.facts_of_func functions
  in
  let interproc =
    match interproc with
    | Some t -> t
    | None -> Interproc.Summary.of_files ~facts files
  in
  let globals = Metrics.Globals.of_files files in
  { files; functions; facts; interproc; globals;
    shadowing = Metrics.Shadowing.of_globals ~globals files }

let build_context ?facts ?interproc (parsed : Cfront.Project.parsed) =
  make_context ?facts ?interproc parsed.Cfront.Project.files

let context_of_files files = make_context files

let v ?(witness = []) ~rule_id ~loc fmt =
  Printf.ksprintf (fun message -> { rule_id; loc; message; witness }) fmt
