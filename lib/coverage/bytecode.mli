(** Flat bytecode for the coverage engine.

    {!Compile} lowers the shared Cfront AST to this instruction set once
    per parse; {!Exec} runs it with a tight dispatch loop against a
    {!Runtime.env}.  Design constraints, in order:

    - {b Oracle equivalence.}  Every hook event ([on_stmt],
      [on_decision] with the full MC/DC condition vector, [on_switch],
      [on_call], [on_kernel_launch], [on_function_stmt]), every memory
      effect, every printed byte and every error message must be
      byte-identical to the tree-walking oracle the differential tests
      run ([test/oracle]) on the same input.  Coverage probes are
      explicit instructions ({!Iprobe}, {!Idecide}, {!Idec_report}, the
      switch dispatchers) so the {!Collector} and {!Mcdc} layers are fed
      unchanged.
    - {b Fewer ticks.}  The dispatch loop calls {!Runtime.tick} exactly
      once per instruction, so [env.steps] doubles as the dispatch
      counter.  The tree-walker ticks once per visited AST node;
      structural statements compile to zero instructions, constants fold
      into one push, and the fused forms ({!Ibinop2}, {!Iindex} and
      {!Imember} with operand bases, {!Iassign_local},
      {!Ideclare_const}, operand-carrying {!Idecide}/{!Ireturn}) replace
      multi-node tree walks with single instructions.  The [compile]
      bench and the differential harness both assert the bytecode engine
      executes the scenario set in strictly fewer ticks.
    - {b Immutability.}  Jump targets are [int ref] purely so the
      one-pass compiler can backpatch; after compilation a program is
      never written and is shared read-only across worker domains.

    Value-stack entries are [(Value.t * ctype)] pairs; lvalue
    instructions push an {e address pair} (pointer + cell type) that
    only address-consuming instructions ({!Ilv_load}, {!Iassign},
    {!Iaddr_of}, {!Iincdec}, {!Imember} with [base = None], …) inspect.
    The stack discipline is static: {!validate} proves jump-target
    bounds and a single consistent stack depth per pc for every
    compiled function (the QCheck well-formedness property in
    [test/test_bytecode_diff.ml] runs it over the whole corpus). *)

type operand =
  | Oslot of int * string * Cfront.Loc.t
      (** local slot, source name (for the global fallback) and use
          location (for error messages) *)
  | Oconst of int  (** constant-pool index *)

type instr =
  | Iconst of int
  | Ilocal of { slot : int; name : string; loc : Cfront.Loc.t }
  | Iglobal of { name : string; loc : Cfront.Loc.t }
  | Icuda_dim of string
  | Ilv_local of { slot : int; name : string; loc : Cfront.Loc.t }
  | Ilv_global of { name : string; loc : Cfront.Loc.t }
  | Ilv_deref of Cfront.Loc.t
  | Iindex of {
      base : operand option;
      idx : operand option;
      want_load : bool;
      loc : Cfront.Loc.t;
    }
  | Imember of {
      arrow : bool;
      base : operand option;
      field : string;
      want_load : bool;
      loc : Cfront.Loc.t;
    }
  | Ilv_cast of Cfront.Ast.ctype
  | Ilv_load
  | Ideref_load of Cfront.Loc.t
  | Iaddr_of
  | Iaddr_local of { slot : int; name : string; loc : Cfront.Loc.t }
  | Iunop of { op : Cfront.Ast.unop; loc : Cfront.Loc.t }
  | Iincdec of { pre : bool; delta : int; drop : bool }
  | Iincdec_local of {
      slot : int;
      name : string;
      pre : bool;
      delta : int;
      drop : bool;
      loc : Cfront.Loc.t;
    }
  | Ibinop of { op : Cfront.Ast.binop; rhs : operand option; loc : Cfront.Loc.t }
  | Ibinop2 of { op : Cfront.Ast.binop; lhs : operand; rhs : operand; loc : Cfront.Loc.t }
  | Iassign of { op : Cfront.Ast.assign_op; drop : bool; loc : Cfront.Loc.t }
  | Iassign_local of {
      op : Cfront.Ast.assign_op;
      slot : int;
      name : string;
      drop : bool;
      loc : Cfront.Loc.t;  (** assign node: compound-op arithmetic errors *)
      id_loc : Cfront.Loc.t;  (** lhs identifier: unbound-name errors *)
    }
  | Ipop
  | Icast of Cfront.Ast.ctype
  | Isizeof_type of Cfront.Ast.ctype
  | Isizeof_expr
  | Inew of { ty : Cfront.Ast.ctype; has_size : bool }
  | Idelete of { drop : bool; loc : Cfront.Loc.t }
  | Ithrow of { has_value : bool }
  | Ias_int
  | Ijump of int ref
  | Ibranch of { value : operand option; jt : int ref; jf : int ref }
  | Idecide of {
      deid : int;
      leid : int;
      negate : bool;
      value : operand option;
      jt : int ref;
      jf : int ref;
    }
  | Idec_begin of int
  | Ileaf of { idx : int; value : operand option; jt : int ref; jf : int ref }
  | Idec_report of { deid : int; leids : int array; outcome : bool; next : int ref }
  | Iprobe of int
  | Ideclare of { slot : int; ty : Cfront.Ast.ctype; sid : int option }
  | Ideclare_const of { slot : int; ty : Cfront.Ast.ctype; cidx : int; sid : int option }
  | Ideclare_alloc of { ty : Cfront.Ast.ctype; sid : int option }
  | Ideclare_init of { slot : int; ty : Cfront.Ast.ctype }
  | Istore_global of string
      (** pop a value, convert it to the global's declared type and store
          it in the cell of this qualified name ({!Runtime.store_global}) *)
  | Iswitch of {
      cases : (int64 * int ref) array;
      case_clauses : int array;
      default : (int ref * int) option;
      sid : int;
      end_ : int ref;
    }
  | Iswitch_dyn of {
      ncases : int;
      targets : int ref array;
      case_clauses : int array;
      default : (int ref * int) option;
      sid : int;
      end_ : int ref;
    }
  | Icall of { fidx : int; nargs : int; drop : bool }
  | Ibuiltin of { name : string; nargs : int; drop : bool; loc : Cfront.Loc.t }
  | Ikernel_prep of { fidx : int; nargs : int; loc : Cfront.Loc.t }
  | Ikernel_run of { fidx : int; nargs : int }
  | Ipush_handler of int ref
  | Ipop_handlers of int
  | Iraise of { msg : string; loc : Cfront.Loc.t }
  | Iraise_goto of string
  | Iraise_sig of [ `Break | `Continue ]
  | Ireturn of { value : operand option; has_value : bool; sid : int option }

(** One compiled function. *)
type cfn = {
  cf_func : Cfront.Ast.func;  (** source AST *)
  cf_qname : string;
  cf_code : instr array;
  cf_locs : Cfront.Loc.t array;
  cf_n_slots : int;
  cf_param_slots : int array;
  cf_max_stack : int;
}

(** The global initializers: straight-line code outside any function
    (no slots, no [on_call]), run once when the program is loaded. *)
type init = {
  i_code : instr array;
  i_locs : Cfront.Loc.t array;
  i_max_stack : int;
}

(** A compiled program: every function with a body from the shared
    parse, the global initializers, the constant pool and the function
    table (qualified and simple names, in load order; a simple name maps
    to the first function loaded under it). *)
type program = {
  p_tus : Cfront.Ast.tu list;
  p_fns : cfn array;
  p_init : init;
  p_pool : (Value.t * Cfront.Ast.ctype) array;
  p_index : (string, int) Hashtbl.t;
}

exception Invalid of string

(** Mnemonic for an instruction (diagnostics and tests). *)
val opname : instr -> string

(** [validate_code code] checks every jump target is in range and the
    value-stack depth is consistent at every pc (and 0 at fall-off);
    returns the maximum stack depth.  Raises {!Invalid} otherwise. *)
val validate_code : instr array -> int

(** Validate one compiled function; returns its max stack depth. *)
val validate : cfn -> int
