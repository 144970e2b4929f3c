(** Static enumeration of coverage points: executable statements, boolean
    decisions with their ordered leaf conditions (for MC/DC), and switch
    statements with their clause counts. *)

type decision = {
  d_eid : int;  (** expression id of the controlling expression *)
  d_loc : Cfront.Loc.t;
  conditions : int list;  (** leaf-condition eids in evaluation order *)
}

type switch_point = {
  sw_sid : int;
  sw_loc : Cfront.Loc.t;
  clauses : int;  (** case labels plus default if present *)
  has_default : bool;
}

type func_points = {
  fp_name : string;  (** qualified *)
  fp_file : string;
  fp_loc : Cfront.Loc.t;
  stmts : int list;  (** executable statement ids *)
  decisions : decision list;
  switches : switch_point list;
}

(** Leaves of a decision's [&&]/[||] tree ([!] is transparent). *)
val leaves_of : Cfront.Ast.expr -> int list

(** Blocks, labels, case markers and empty statements are structural;
    everything else counts for statement coverage. *)
val is_executable : Cfront.Ast.stmt -> bool

val of_tu : Cfront.Ast.tu -> func_points list
