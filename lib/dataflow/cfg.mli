(** Basic-block control-flow graphs over [Cfront.Ast.func] bodies.

    Branch conditions are decomposed through short-circuit [&&]/[||]/[!]
    so every [Icond] is an atomic condition; statements lowered after an
    unconditional jump land in blocks with no incoming edge, which is how
    unreachable code survives into the graph. *)

open Cfront

(** Why a condition exists, for checks that treat loop idioms specially. *)
type cond_origin = Cif | Cwhile | Cdo | Cfor

type instr_desc =
  | Idecl of Ast.var_decl  (** local declaration; initializer evaluated *)
  | Iexpr of Ast.expr  (** expression evaluated for its effect *)
  | Icond of Ast.expr * cond_origin
      (** atomic branch condition; always last in its block, out-edges
          are [Etrue]/[Efalse] *)
  | Iswitch of Ast.expr  (** switch scrutinee; out-edges are [Ecase]/[Edefault] *)
  | Ireturn of Ast.expr option

type instr = { i : instr_desc; iloc : Loc.t }

type edge_kind = Eseq | Etrue | Efalse | Ecase | Edefault

type block = {
  bid : int;
  mutable instrs : instr list;  (** in execution order *)
  mutable succs : (int * edge_kind) list;
  mutable preds : int list;
}

type t = {
  func : Ast.func;
  blocks : block array;  (** [blocks.(i).bid = i]; construction order
                             follows source order *)
  entry : int;
  exit_ : int;
}

(** Lower a function definition to its CFG.
    @raise Invalid_argument on a prototype. *)
val of_func : Ast.func -> t

val n_blocks : t -> int
val n_edges : t -> int

(** Blocks reachable from the entry, indexed by block id. *)
val reachable : t -> bool array

(** First source location of a block, if it holds any instruction. *)
val first_loc : block -> Loc.t option

(** Variables whose address is taken ([&x]) in the expression. *)
val addr_taken_of_expr : Ast.expr -> string list

val exprs_of_instr : instr -> Ast.expr list
val uses_of_instr : instr -> (string * Loc.t) list

(** Instruction defs; a declaration with an initializer defines its
    variable. *)
val defs_of_instr : instr -> (string * Loc.t) list

val addr_taken_of_instr : instr -> string list
