(** McCabe cyclomatic complexity, computed the way Lizard computes it:
    CC = 1 + decision points, where decision points are [if], [while],
    [do-while], [for] (with a condition), [case] labels, [?:], and the
    short-circuit operators [&&]/[||].

    Figure 3 buckets: 1-10 low, 11-20 moderate, 21-50 risky, >50
    unstable. *)

type bucket = Low | Moderate | Risky | Unstable

val bucket_of_cc : int -> bucket

val nesting_of_func : Cfront.Ast.func -> int

type func_cc = { fn : Cfront.Ast.func; cc : int }

(** Complexity of every defined function in the list. *)
val of_functions : Cfront.Ast.func list -> func_cc list

type module_summary = {
  modname : string;
  n_functions : int;
  loc : int;
  cc_mean : float;
  cc_max : int;
  over_10 : int;
  over_20 : int;
  over_50 : int;
}

val summarize : modname:string -> loc:int -> Cfront.Ast.func list -> module_summary
