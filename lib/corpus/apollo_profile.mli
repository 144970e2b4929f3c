(** Statistical profile of the Apollo AD framework, as published in the
    paper (Figure 3 and Sections 3.1-3.5).  The corpus generator
    reproduces these statistics exactly; see DESIGN.md for the
    substitution argument. *)

type module_spec = {
  name : string;
  target_loc : int;
  n_files : int;
  n_functions : int;
  over10 : int;  (** functions with CC > 10 (includes the next two) *)
  over20 : int;
  over50 : int;
  globals : int;  (** mutable globals *)
  casts : int;  (** explicit casts *)
  multi_exit_frac : float;
  gotos : int;
  recursive_fns : int;
  uninit_vars : int;
  dead_code : int;  (** unreachable-statement sites (code after an early return) *)
  cuda_kernels : int;
  uses_threads : bool;
}

val perception : module_spec

(** The full framework: nine modules, >220k LOC, exactly 554 CC>10
    functions, >1,400 casts, 900 perception globals. *)
val full : module_spec list

(** Proportional rescaling; zero quotas stay zero, nonzero quotas stay
    at least 1 (so every hazard class remains represented). *)
val scale : factor:float -> module_spec -> module_spec

(** ~8% scale with the same relative shape; parses+audits in about a
    second. *)
val small : module_spec list

val total_loc : module_spec list -> int
val total_over10 : module_spec list -> int
val total_casts : module_spec list -> int
