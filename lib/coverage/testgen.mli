(** Gap-driven test generation — Observation 10's "additional test cases
    are required", synthesized.

    Covers the tractable gap classes: uncalled all-scalar functions
    (boundary-value battery), parameter-driven switch clauses (one probe
    per missing label), and one-sided comparisons against integer
    constants (straddling values). *)

type call_plan = {
  target : string;  (** simple function name to call *)
  args : int list list;  (** one argument list per synthesized call *)
  reason : string;
}

(** Does every parameter have a scalar type (so an int battery applies)? *)
val all_scalar_params : Cfront.Ast.func -> bool

(** Case labels of parameter-driven switches and comparison boundaries,
    deduplicated and sorted. *)
val interesting_values : Cfront.Ast.func -> int list

(** Build call plans for the coverage gaps left by a previous run. *)
val plan_for_gaps :
  Collector.t -> Cfront.Ast.tu list -> measured:string list -> call_plan list

(** Render plans as a C driver with one [gap_case_N] entry per probe, so
    a faulting probe does not mask the others.  Returns (source, entry
    names). *)
val driver_of_plans : call_plan list -> string * string list

type improvement = {
  before_stmt : float;
  before_branch : float;
  after_stmt : float;
  after_branch : float;
  plans : call_plan list;
  driver : string;
}

(** Measure under [entry], synthesize probes for the gaps, re-measure
    with the probes included.  Both runs execute on the bytecode engine,
    one compile per unit list.  @raise Failure if the baseline itself
    fails to run. *)
val close_gaps :
  entry:string -> measured:string list -> Cfront.Ast.tu list -> improvement
