(** Flat bytecode for the coverage interpreter.  See bytecode.mli.

    Jump targets are [int ref]s so the one-pass compiler can emit a
    forward reference and patch it when the target's offset is known.
    After {!Compile.compile} returns, no target is ever written again —
    a program is immutable and safe to share across worker domains. *)

type operand =
  | Oslot of int * string * Cfront.Loc.t
      (** a local slot with its source name (for the global/unbound
          fallback) and the identifier's location (for error messages) *)
  | Oconst of int  (** constant-pool index *)

type instr =
  (* --- pushes ------------------------------------------------------ *)
  | Iconst of int
  | Ilocal of { slot : int; name : string; loc : Cfront.Loc.t }
  | Iglobal of { name : string; loc : Cfront.Loc.t }
  | Icuda_dim of string
  (* --- lvalues (push an address pair: pointer + cell type) --------- *)
  | Ilv_local of { slot : int; name : string; loc : Cfront.Loc.t }
  | Ilv_global of { name : string; loc : Cfront.Loc.t }
  | Ilv_deref of Cfront.Loc.t
  | Iindex of {
      base : operand option;
      idx : operand option;
      want_load : bool;
      loc : Cfront.Loc.t;  (** location of the base expression *)
    }
  | Imember of {
      arrow : bool;
      base : operand option;
          (** fused base: [Oslot] resolves with lvalue rules when
              [arrow = false] and rvalue rules when [arrow = true] *)
      field : string;
      want_load : bool;
      loc : Cfront.Loc.t;
    }
  | Ilv_cast of Cfront.Ast.ctype
  | Ilv_load
  | Ideref_load of Cfront.Loc.t
  | Iaddr_of
  | Iaddr_local of { slot : int; name : string; loc : Cfront.Loc.t }
  (* --- operators ---------------------------------------------------- *)
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
  (* --- control flow ------------------------------------------------- *)
  | Ijump of int ref
  | Ibranch of { value : operand option; jt : int ref; jf : int ref }
      (** truthy branch without decision recording (bare [&&]/[||] in
          value position) *)
  | Idecide of {
      deid : int;  (** decision eid reported to [on_decision] *)
      leid : int;  (** the single leaf's eid *)
      negate : bool;  (** odd number of [!] wrappers around the leaf *)
      value : operand option;  (** fused leaf value; [None] pops *)
      jt : int ref;
      jf : int ref;
    }
  | Idec_begin of int  (** push an n-leaf decision record *)
  | Ileaf of { idx : int; value : operand option; jt : int ref; jf : int ref }
  | Idec_report of { deid : int; leids : int array; outcome : bool; next : int ref }
  (* --- statements --------------------------------------------------- *)
  | Iprobe of int  (** statement sid: on_stmt + on_function_stmt *)
  | Ideclare of { slot : int; ty : Cfront.Ast.ctype; sid : int option }
  | Ideclare_const of { slot : int; ty : Cfront.Ast.ctype; cidx : int; sid : int option }
  | Ideclare_alloc of { ty : Cfront.Ast.ctype; sid : int option }
  | Ideclare_init of { slot : int; ty : Cfront.Ast.ctype }
  | Istore_global of string
      (** pop a value into the global cell of this qualified name *)
  | Iswitch of {
      cases : (int64 * int ref) array;  (** in clause order *)
      case_clauses : int array;
      default : (int ref * int) option;  (** target, clause index *)
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
  (* --- calls --------------------------------------------------------- *)
  | Icall of { fidx : int; nargs : int; drop : bool }
  | Ibuiltin of { name : string; nargs : int; drop : bool; loc : Cfront.Loc.t }
  | Ikernel_prep of { fidx : int; nargs : int; loc : Cfront.Loc.t }
  | Ikernel_run of { fidx : int; nargs : int }
  (* --- exceptions ---------------------------------------------------- *)
  | Ipush_handler of int ref
  | Ipop_handlers of int
  | Iraise of { msg : string; loc : Cfront.Loc.t }
  | Iraise_goto of string
  | Iraise_sig of [ `Break | `Continue ]
  | Ireturn of { value : operand option; has_value : bool; sid : int option }

type cfn = {
  cf_func : Cfront.Ast.func;
  cf_qname : string;
  cf_code : instr array;
  cf_locs : Cfront.Loc.t array;  (** per-instruction location, for [tick] *)
  cf_n_slots : int;
  cf_param_slots : int array;  (** slot of each parameter, in order *)
  cf_max_stack : int;
}

type init = {
  i_code : instr array;
  i_locs : Cfront.Loc.t array;
  i_max_stack : int;
}

type program = {
  p_tus : Cfront.Ast.tu list;
  p_fns : cfn array;
  p_init : init;
  p_pool : (Value.t * Cfront.Ast.ctype) array;
  p_index : (string, int) Hashtbl.t;
      (** function table, mapping both qualified and simple names *)
}

exception Invalid of string

(* ------------------------------------------------------------------ *)
(* Static well-formedness: jump targets in range, consistent stack     *)
(* depth at every pc, empty stack at function exit.                    *)
(* ------------------------------------------------------------------ *)

let opname = function
  | Iconst _ -> "const" | Ilocal _ -> "local" | Iglobal _ -> "global"
  | Icuda_dim _ -> "cuda_dim" | Ilv_local _ -> "lv_local"
  | Ilv_global _ -> "lv_global" | Ilv_deref _ -> "lv_deref"
  | Iindex _ -> "index" | Imember _ -> "member" | Ilv_cast _ -> "lv_cast"
  | Ilv_load -> "lv_load" | Ideref_load _ -> "deref_load"
  | Iaddr_of -> "addr_of" | Iaddr_local _ -> "addr_local" | Iunop _ -> "unop"
  | Iincdec _ -> "incdec" | Iincdec_local _ -> "incdec_local"
  | Ibinop _ -> "binop" | Ibinop2 _ -> "binop2" | Iassign _ -> "assign"
  | Iassign_local _ -> "assign_local" | Ipop -> "pop" | Icast _ -> "cast"
  | Isizeof_type _ -> "sizeof_type" | Isizeof_expr -> "sizeof_expr"
  | Inew _ -> "new" | Idelete _ -> "delete" | Ithrow _ -> "throw"
  | Ias_int -> "as_int"
  | Ijump _ -> "jump" | Ibranch _ -> "branch" | Idecide _ -> "decide"
  | Idec_begin _ -> "dec_begin" | Ileaf _ -> "leaf"
  | Idec_report _ -> "dec_report" | Iprobe _ -> "probe"
  | Ideclare _ -> "declare" | Ideclare_const _ -> "declare_const"
  | Ideclare_alloc _ -> "declare_alloc" | Ideclare_init _ -> "declare_init"
  | Istore_global _ -> "store_global"
  | Iswitch _ -> "switch" | Iswitch_dyn _ -> "switch_dyn"
  | Icall _ -> "call" | Ibuiltin _ -> "builtin"
  | Ikernel_prep _ -> "kernel_prep" | Ikernel_run _ -> "kernel_run"
  | Ipush_handler _ -> "push_handler" | Ipop_handlers _ -> "pop_handlers"
  | Iraise _ -> "raise" | Iraise_goto _ -> "raise_goto"
  | Iraise_sig _ -> "raise_sig" | Ireturn _ -> "return"

let operand_pops = function Some _ -> 0 | None -> 1

(* (pops, pushes, successors).  Successors: [`Next] fall-through plus
   explicit targets; terminators have no successors. *)
let effect instr =
  let n = [ `Next ] in
  match instr with
  | Iconst _ | Ilocal _ | Iglobal _ | Icuda_dim _ | Ilv_local _ | Ilv_global _ ->
    (0, 1, n)
  | Ilv_deref _ | Ilv_cast _ | Ilv_load | Ideref_load _ | Iaddr_of | Iunop _
  | Icast _ | Isizeof_expr | Ias_int ->
    (1, 1, n)
  | Iaddr_local _ -> (0, 1, n)
  | Iindex { base; idx; _ } -> (operand_pops base + operand_pops idx, 1, n)
  | Imember { base; _ } -> (operand_pops base, 1, n)
  | Iincdec { drop; _ } -> (1, (if drop then 0 else 1), n)
  | Iincdec_local { drop; _ } -> (0, (if drop then 0 else 1), n)
  | Ibinop { rhs; _ } -> (1 + operand_pops rhs, 1, n)
  | Ibinop2 _ -> (0, 1, n)
  | Iassign { drop; _ } -> (2, (if drop then 0 else 1), n)
  | Iassign_local { drop; _ } -> (1, (if drop then 0 else 1), n)
  | Ipop -> (1, 0, n)
  | Isizeof_type _ -> (0, 1, n)
  | Inew { has_size; _ } -> ((if has_size then 1 else 0), 1, n)
  | Idelete { drop; _ } -> (1, (if drop then 0 else 1), n)
  | Ithrow { has_value } -> ((if has_value then 1 else 0), 0, [])
  | Ijump t -> (0, 0, [ `To t ])
  | Ibranch { value; jt; jf } -> (operand_pops value, 0, [ `To jt; `To jf ])
  | Idecide { value; jt; jf; _ } -> (operand_pops value, 0, [ `To jt; `To jf ])
  | Idec_begin _ -> (0, 0, n)
  | Ileaf { value; jt; jf; _ } -> (operand_pops value, 0, [ `To jt; `To jf ])
  | Idec_report { next; _ } -> (0, 0, [ `To next ])
  | Iprobe _ -> (0, 0, n)
  | Ideclare _ | Ideclare_const _ -> (0, 0, n)
  | Ideclare_alloc _ -> (0, 1, n)
  | Ideclare_init _ -> (2, 0, n)
  | Istore_global _ -> (1, 0, n)
  | Iswitch { cases; default; end_; _ } ->
    let succ =
      `To end_
      :: (Array.to_list cases |> List.map (fun (_, t) -> `To t))
      @ (match default with Some (t, _) -> [ `To t ] | None -> [])
    in
    (1, 0, succ)
  | Iswitch_dyn { ncases; targets; default; end_; _ } ->
    let succ =
      (`To end_ :: (Array.to_list targets |> List.map (fun t -> `To t)))
      @ (match default with Some (t, _) -> [ `To t ] | None -> [])
    in
    (ncases + 1, 0, succ)
  | Icall { nargs; drop; _ } | Ibuiltin { nargs; drop; _ } ->
    (nargs, (if drop then 0 else 1), n)
  | Ikernel_prep _ -> (0, 0, n)  (* validates grid/block in place *)
  | Ikernel_run { nargs; _ } -> (nargs + 2, 0, n)
  | Ipush_handler t -> (0, 0, [ `Next; `To t ])
  | Ipop_handlers _ -> (0, 0, n)
  | Iraise _ | Iraise_goto _ | Iraise_sig _ -> (0, 0, [])
  | Ireturn { value; has_value; _ } ->
    ((if has_value && value = None then 1 else 0), 0, [])

(** Check jump-target bounds and stack-depth consistency; returns the
    maximum value-stack depth.  Raises {!Invalid} on malformed code.
    Depth at the implicit fall-off return (pc = length) must be 0. *)
let validate_code (code : instr array) =
  let len = Array.length code in
  let depth = Array.make (len + 1) (-1) in
  let max_depth = ref 0 in
  let work = Queue.create () in
  let visit pc d =
    if pc < 0 || pc > len then
      raise (Invalid (Printf.sprintf "jump target %d out of range [0,%d]" pc len));
    if d < 0 then raise (Invalid (Printf.sprintf "stack underflow reaching pc %d" pc));
    if depth.(pc) = -1 then begin
      depth.(pc) <- d;
      if d > !max_depth then max_depth := d;
      if pc < len then Queue.add pc work
    end
    else if depth.(pc) <> d then
      raise
        (Invalid
           (Printf.sprintf "inconsistent stack depth at pc %d: %d vs %d" pc depth.(pc) d))
  in
  if len > 0 then visit 0 0;
  while not (Queue.is_empty work) do
    let pc = Queue.pop work in
    let instr = code.(pc) in
    let pops, pushes, succ = effect instr in
    let d = depth.(pc) - pops in
    if d < 0 then
      raise
        (Invalid
           (Printf.sprintf "stack underflow at pc %d (%s): depth %d, pops %d" pc
              (opname instr) depth.(pc) pops));
    let d' = d + pushes in
    List.iter
      (fun s ->
        match s with
        | `Next ->
          (* a handler target is entered with an empty value stack (the
             runtime truncates to the push-time depth, which for a
             statement-position try is the recorded depth) *)
          visit (pc + 1) d'
        | `To t -> (
            match instr with
            | Ipush_handler _ when !t <> pc + 1 -> visit !t depth.(pc)
            | _ -> visit !t d'))
      succ
  done;
  if depth.(len) > 0 then
    raise (Invalid (Printf.sprintf "non-empty stack (%d) at function exit" depth.(len)));
  !max_depth

let validate (cfn : cfn) =
  if Array.length cfn.cf_code <> Array.length cfn.cf_locs then
    raise (Invalid "code/locs length mismatch");
  validate_code cfn.cf_code
