(** Halstead software-science metrics and the SEI maintainability index,
    computed from the token stream as classic tools do. *)

type t = {
  n1 : int;  (** distinct operators *)
  n2 : int;  (** distinct operands *)
  big_n1 : int;  (** total operators *)
  big_n2 : int;  (** total operands *)
  vocabulary : int;
  length : int;
  volume : float;
  difficulty : float;
  effort : float;
  estimated_bugs : float;  (** volume / 3000, Halstead's delivered-bug estimate *)
}

val of_tokens : Cfront.Token.table -> t
val of_tu : Cfront.Ast.tu -> t
val of_files : Cfront.Project.parsed_file list -> t

(** SEI maintainability index [171 - 5.2 ln V - 0.23 CC - 16.2 ln LOC],
    rescaled to [0, 100]. *)
val maintainability_index : volume:float -> mean_cc:float -> loc:int -> float

(** Halstead metrics of one function, from the tokens in its line span,
    found by binary search over the unit's table. *)
val of_func : tu:Cfront.Ast.tu -> Cfront.Ast.func -> t

val mi_of_func : tu:Cfront.Ast.tu -> Cfront.Ast.func -> float

type module_report = {
  modname : string;
  halstead : t;  (** whole-module aggregate *)
  mi : float;  (** mean per-function maintainability index *)
}

val report_of_module : modname:string -> Cfront.Project.parsed_file list -> module_report
