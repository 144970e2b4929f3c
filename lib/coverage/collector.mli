(** Runtime coverage collector: aggregates interpreter hook events and
    joins them with the static {!Instrument} points into per-function and
    per-file coverage reports (statement, branch, MC/DC, function). *)

type t = {
  origin : string;  (** scenario name attributions carry, "" when unnamed *)
  stmt_hits : (int, int) Hashtbl.t;  (** statement id -> hit count *)
  decision_outcomes : (int * bool, int) Hashtbl.t;  (** (decision eid, outcome) *)
  switch_hits : (int * int, int) Hashtbl.t;  (** (switch sid, clause index) *)
  calls : (string, int) Hashtbl.t;  (** qualified function name -> entries *)
  kernel_launches : (string, int) Hashtbl.t;
  mcdc : Mcdc.t;
  stmt_first : (int, string) Hashtbl.t;
      (** statement id -> first-covering scenario (merge: least name wins) *)
  decision_first : (int * bool, string) Hashtbl.t;
      (** (decision eid, outcome) -> first-covering scenario *)
}

(** [origin] names the scenario this collector records for; attribution
    tables stay empty when it is omitted, so unnamed collectors (tests,
    single-run tools) behave exactly as before. *)
val create : ?origin:string -> unit -> t

(** Hooks that feed this collector; pass to {!Runtime.create}. *)
val hooks : t -> Runtime.hooks

val function_called : t -> string -> bool

(** [merge_into ~into src] adds [src]'s state into [into]: hit tables by
    per-key count sum, MC/DC logs by vector-set union, attribution
    tables by least scenario name.  All three operators are commutative
    and associative (min also idempotent), and every score is a
    membership test on the key set (or an existential over the vector
    set), so the merge of per-scenario collectors equals the
    one-collector sequential run exactly — the scenario-parallel
    engine's correctness argument (see DESIGN.md). *)
val merge_into : into:t -> t -> unit

(** Merge a list of collectors (left to right) into a fresh one. *)
val merge : t list -> t

(** Deterministic, canonically-ordered rendering of the complete state:
    equal fingerprints iff the collectors are observationally identical.
    The differential suite compares fingerprints across jobs values; the
    property tests across random partitions and merge orders. *)
val fingerprint : t -> string

type func_coverage = {
  fp : Instrument.func_points;
  called : bool;
  stmts_hit : int;
  stmts_total : int;
  branches_hit : int;
  branches_total : int;
  conditions_hit : int;
  conditions_total : int;
  first_covered_by : string option;
      (** least-named scenario covering any of the function's statements *)
}

(** First-covering scenario of a statement / decision outcome, when the
    collectors that observed it were created with an [origin]. *)
val first_covering_stmt : t -> int -> string option
val first_covering_decision : t -> int -> bool -> string option

type file_coverage = {
  file : string;
  functions : func_coverage list;  (** called functions only *)
  excluded : int;  (** never-called functions, excluded as in the paper *)
  stmt_pct : float;
  branch_pct : float;
  mcdc_pct : float;
  function_pct : float;  (** fraction of defined functions entered at all *)
}

(** Score a file: percentages aggregate over called functions only (the
    paper "excluded all those functions that were not called"). *)
val score_file : t -> file:string -> Instrument.func_points list -> file_coverage

(** Unweighted per-file means of (statement, branch, MC/DC) percentages,
    matching the paper's Figure 5 averages. *)
val averages : file_coverage list -> float * float * float
