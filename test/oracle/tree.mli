(** Tree-walking evaluator for the C/C++/CUDA subset: the differential
    oracle of the bytecode coverage engine ({!Coverage.Exec}).

    It walks the parsed units directly over the same
    {!Coverage.Runtime} (memory, globals, layouts, hooks, step counter,
    exception and result protocol) and keeps its own function and enum
    tables, built with {!Coverage.Compile}'s insertion sequence.  Every
    hook event, memory effect, printed byte and error message must match
    the bytecode engine on the same parse; only [env.steps] differs (one
    tick per visited AST node against one per dispatched instruction).
    [test/test_bytecode_diff.ml] and the bench [compile] experiment run
    both. *)

type t

(** A fresh runtime environment with empty tables. *)
val create : ?hooks:Coverage.Runtime.hooks -> ?max_steps:int -> unit -> t

val env : t -> Coverage.Runtime.env

(** [run o tus ~entry ~args] loads [tus] and calls [entry], with the
    protocol of {!Coverage.Exec.run}: layouts and globals are declared,
    then every unit's global initializers run in load order (an error
    there is the result), then the entry is called. *)
val run :
  t ->
  Cfront.Ast.tu list ->
  entry:string ->
  args:Coverage.Value.t list ->
  (Coverage.Value.t, string) result

(** Load [tus] once, then call each entry in order, as
    {!Coverage.Exec.run_entries}. *)
val run_entries :
  t ->
  Cfront.Ast.tu list ->
  entries:string list ->
  (string * (Coverage.Value.t, string) result) list

(** {!Coverage.Scenario.run_one} on the tree evaluator, with the same
    telemetry: the [coverage.scenarios] count and the
    {!Coverage.Runtime.telemetry_hooks} counters. *)
val run_scenario : Coverage.Scenario.t -> Coverage.Scenario.outcome

(** Every scenario in order, sequentially: the jobs=1 oracle. *)
val run_scenarios : Coverage.Scenario.t list -> Coverage.Scenario.outcome list
