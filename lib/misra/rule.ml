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

type producers = (string * Dataflow.Analyses.func_facts list) list * Interproc.Summary.t

(* The whole-program summary of [parsed], memoized whole under a store
   as the [interproc] artifact.  Interproc reads every file and names
   each function's module, so the key is the tree key (paths, module
   names, header flags and content hashes, in order).  The artifact has
   no owner, so reverting an edit finds it again.  It holds the summary
   and the findings the run journaled (recursion cycles, cross-call
   uninit flows, unbounded depth), which a hit replays; a hit adds no
   [interproc.*] work counters, because no work was done. *)
let interproc_of ~facts parsed =
  let analyze () = Interproc.Summary.analyze ~facts parsed in
  match Cache.global () with
  | None -> analyze ()
  | Some c ->
    let key = Cache.key ~kind:"interproc" [ Cfront.Project.tree_key parsed ] in
    let (summary : Interproc.Summary.t), findings =
      Cache.memo c ~kind:"interproc" ~key (fun () -> Provenance.collect analyze)
    in
    Provenance.absorb findings;
    summary

(* The two producers whose hits replay journal findings, in the audit's
   order: the dataflow layer solves every defined function (per-file
   cache artifacts and journal findings), and interproc runs over those
   facts and builds the call graph.  A file whose dataflow artifact hits
   is not forced, so a warm run reads no unit here. *)
let producers (parsed : Cfront.Project.parsed) =
  let facts =
    Telemetry.gc_phase "dataflow" (fun () -> Dataflow.Analyses.facts_of_parsed parsed)
  in
  let interproc =
    Telemetry.gc_phase "interproc" (fun () ->
        interproc_of ~facts:(List.concat_map snd facts) parsed)
  in
  (facts, interproc)

(* The rest of the context: every unit is forced here, on the calling
   domain, for the defined functions, the globals and the shadowing
   findings.  Every fact is a plain value computed before the registry
   fans the rules out: no worker forces a unit. *)
let context_of (parsed : Cfront.Project.parsed) (facts, interproc) =
  Telemetry.with_span ~cat:"misra" "misra.context" @@ fun () ->
  let files = parsed.Cfront.Project.files in
  let functions = Cfront.Project.defined_functions files in
  let globals = Metrics.Globals.of_files files in
  { files; functions; facts = List.concat_map snd facts; interproc; globals;
    shadowing = Metrics.Shadowing.of_globals ~globals files }

let build_context parsed = context_of parsed (producers parsed)

let v ?(witness = []) ~rule_id ~loc fmt =
  Printf.ksprintf (fun message -> { rule_id; loc; message; witness }) fmt
