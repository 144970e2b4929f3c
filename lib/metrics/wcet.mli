(** Static WCET-analyzability classification — the checkable form of
    Observation 1's warning that complexity blocks timing analysis.

    A function is analyzable by standard static timing analysis when
    every loop bound is derivable without data knowledge and the function
    is recursion-free. *)

type loop_bound =
  | Constant of int
  | Parametric of string  (** symbolic bound expression *)
  | Unknown

type classification = Analyzable | Parametric_bound | Unanalyzable

type func_report = {
  fn : string;  (** qualified name *)
  classification : classification;
  loops : int;
  constant_loops : int;
  parametric_loops : int;
  unknown_loops : int;
  has_goto : bool;
  recursive : bool;
  wcet_expr : string;  (** symbolic iteration bound, e.g. ["O(width * height)"] *)
}

(** Classify every defined function (builds the call graph internally). *)
val of_functions : Cfront.Ast.func list -> func_report list

type summary = {
  total : int;
  analyzable : int;
  parametric : int;
  unanalyzable : int;
}

val summarize : func_report list -> summary
