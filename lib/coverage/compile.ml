(** One-pass compiler from the shared Cfront AST to {!Bytecode}.

    Anything that is statically knowable — enum constants, call targets
    (including the namespace-suffix fallback), switch case values,
    single-slot local bindings — is resolved here once.  The enum and
    function tables are the only ones the engine has: a simple name maps
    to the last enum item and the first function loaded under it, and
    suffix resolution walks the table's bucket order.  The tree-walking
    oracle of the differential tests ([test/oracle]) builds its tables
    with the same insertion sequence, so both resolve every name alike.

    Evaluation-order discipline for operand fusion: a fused operand is
    resolved at dispatch time, i.e. {e after} any stacked sub-expression
    instructions have run.  The left-hand side of a binary operator (or
    the base of an index) is therefore only fused when the right-hand
    side is fused too, keeping the left-to-right effect and error order
    of source evaluation intact. *)

module A = Cfront.Ast
module B = Bytecode

(* ------------------------------------------------------------------ *)
(* Compilation contexts                                                *)
(* ------------------------------------------------------------------ *)

(* program-wide state shared by every function being compiled *)
type pctx = {
  enums : (string, int64) Hashtbl.t;
  findex : (string, int) Hashtbl.t;
  fns : A.func array;
  mutable pool_rev : (Value.t * A.ctype) list;
  mutable pool_len : int;
  pool_tbl : (Value.t * A.ctype, int) Hashtbl.t;
}

(* per-function state: name->slot map plus the growing code buffer *)
type fctx = {
  p : pctx;
  slots : (string, int) Hashtbl.t;
  mutable code : B.instr array;
  mutable locs : Cfront.Loc.t array;
  mutable len : int;
}

(* statement-position context: break/continue targets and goto label
   scopes, each paired with the try-nesting depth at its binding site so
   a jump out of a [try] emits the right number of handler pops *)
type senv = {
  brk : (int ref * int) option;
  cont : (int ref * int) option;
  labels : (string * (int ref * int)) list list;
  hdepth : int;
}

let emit c instr loc =
  if c.len = Array.length c.code then begin
    let cap = Stdlib.max 64 (2 * c.len) in
    let code = Array.make cap B.Ipop in
    Array.blit c.code 0 code 0 c.len;
    c.code <- code;
    let locs = Array.make cap loc in
    Array.blit c.locs 0 locs 0 c.len;
    c.locs <- locs
  end;
  c.code.(c.len) <- instr;
  c.locs.(c.len) <- loc;
  c.len <- c.len + 1

let bind c r = r := c.len

let pool_add p cv =
  match Hashtbl.find_opt p.pool_tbl cv with
  | Some i -> i
  | None ->
    let i = p.pool_len in
    p.pool_rev <- cv :: p.pool_rev;
    p.pool_len <- i + 1;
    Hashtbl.replace p.pool_tbl cv i;
    i

let emit_const c cv loc = emit c (B.Iconst (pool_add c.p cv)) loc

(* slot of a name, or -1 when the name is never declared locally (the
   instruction then falls straight through to the global lookup) *)
let slot_or c name =
  match Hashtbl.find_opt c.slots name with Some s -> s | None -> -1

(* Static value of an expression the tree-walker would evaluate to a
   constant with no side effects and no possibility of error: literals,
   enum items, and [Neg] of a numeric constant.  The (value, type) pair
   matches [eval_typed] exactly. *)
let rec const_of p (e : A.expr) : (Value.t * A.ctype) option =
  match e.A.e with
  | A.Int_const v -> Some (Value.Vint v, A.int_t)
  | A.Float_const v -> Some (Value.Vfloat v, A.Tdouble)
  | A.Bool_const b -> Some (Value.Vbool b, A.Tbool)
  | A.Str_const s -> Some (Value.Vstr s, A.Tptr A.Tchar)
  | A.Char_const ch -> Some (Value.Vint (Int64.of_int (Char.code ch)), A.Tchar)
  | A.Nullptr -> Some (Value.Vnull, A.Tptr A.Tvoid)
  | A.Id name -> (
      match Hashtbl.find_opt p.enums name with
      | Some v -> Some (Value.Vint v, A.int_t)
      | None -> None)
  | A.Unary (A.Neg, a) -> (
      match const_of p a with
      | Some (Value.Vfloat f, ty) -> Some (Value.Vfloat (-.f), ty)
      | Some (((Value.Vint _ | Value.Vbool _ | Value.Vnull) as v), ty) ->
        Some (Value.Vint (Int64.neg (Value.as_int v)), ty)
      | _ -> None)
  | _ -> None

(* A fusable operand: a constant or an identifier that follows rvalue
   [Id] rules (enum items fold to constants here, so an [Oslot] operand
   never shadows an enum). *)
let operand_of c (e : A.expr) : B.operand option =
  match const_of c.p e with
  | Some cv -> Some (B.Oconst (pool_add c.p cv))
  | None -> (
      match e.A.e with
      | A.Id name -> Some (B.Oslot (slot_or c name, name, e.A.eloc))
      | _ -> None)

let resolve_fidx p name =
  match Hashtbl.find_opt p.findex name with
  | Some i -> Some i
  | None ->
    Hashtbl.fold
      (fun key i acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if Util.Strutil.ends_with ~suffix:("::" ^ name) key then Some i
          else None)
      p.findex None

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec compile_value c (e : A.expr) =
  let loc = e.A.eloc in
  match e.A.e with
  | A.Int_const _ | A.Float_const _ | A.Bool_const _ | A.Str_const _
  | A.Char_const _ | A.Nullptr ->
    emit_const c (Option.get (const_of c.p e)) loc
  | A.Id name -> (
      match Hashtbl.find_opt c.p.enums name with
      | Some v -> emit_const c (Value.Vint v, A.int_t) loc
      | None -> (
          match Hashtbl.find_opt c.slots name with
          | Some slot -> emit c (B.Ilocal { slot; name; loc }) loc
          | None -> emit c (B.Iglobal { name; loc }) loc))
  | A.Unary (A.Neg, a) -> (
      match const_of c.p e with
      | Some cv -> emit_const c cv loc
      | None ->
        compile_value c a;
        emit c (B.Iunop { op = A.Neg; loc }) loc)
  | A.Unary (A.Pos, a) -> compile_value c a
  | A.Unary ((A.Lnot | A.Bnot) as op, a) ->
    compile_value c a;
    emit c (B.Iunop { op; loc }) loc
  | A.Unary ((A.Pre_inc | A.Pre_dec) as op, a) ->
    compile_incdec c a ~pre:true ~delta:(if op = A.Pre_inc then 1 else -1) ~drop:false
  | A.Unary (A.Deref, a) ->
    compile_value c a;
    emit c (B.Ideref_load loc) loc
  | A.Unary (A.Addr_of, a) -> (
      match a.A.e with
      | A.Id name ->
        emit c (B.Iaddr_local { slot = slot_or c name; name; loc = a.A.eloc }) loc
      | _ ->
        compile_lvalue c a;
        emit c B.Iaddr_of loc)
  | A.Postfix (op, a) ->
    compile_incdec c a ~pre:false
      ~delta:(match op with A.Post_inc -> 1 | A.Post_dec -> -1)
      ~drop:false
  | A.Binary ((A.Land | A.Lor), _, _) -> compile_bare c e
  | A.Binary (A.Comma, a, b) ->
    compile_drop c a;
    compile_value c b
  | A.Binary (op, a, b) -> (
      match (operand_of c a, operand_of c b) with
      | Some lhs, Some rhs -> emit c (B.Ibinop2 { op; lhs; rhs; loc }) loc
      | _, (Some _ as rhs) ->
        compile_value c a;
        emit c (B.Ibinop { op; rhs; loc }) loc
      | _, None ->
        compile_value c a;
        compile_value c b;
        emit c (B.Ibinop { op; rhs = None; loc }) loc)
  | A.Assign (op, lhs, rhs) -> compile_assign c op lhs rhs ~drop:false ~loc
  | A.Ternary (cnd, a, b) ->
    let lt = ref (-1) and lf = ref (-1) and lend = ref (-1) in
    compile_decision c cnd lt lf;
    bind c lt;
    compile_value c a;
    emit c (B.Ijump lend) loc;
    bind c lf;
    compile_value c b;
    bind c lend
  | A.Call (f, args) -> compile_call c f args ~drop:false ~loc
  | A.Kernel_launch { kernel; grid; block; args } ->
    compile_kernel c kernel grid block args ~drop:false ~loc
  | A.Index (a, i) -> compile_index c a i ~want_load:true
  | A.Member { obj; arrow; field } -> (
      match obj.A.e with
      | A.Id base when (not arrow) && List.mem base Runtime.cuda_builtin_names ->
        emit c (B.Icuda_dim (base ^ "." ^ field)) loc
      | _ -> compile_member c obj arrow field ~want_load:true ~loc)
  | A.C_cast (ty, a) | A.Cpp_cast (_, ty, a) ->
    compile_value c a;
    emit c (B.Icast ty) loc
  | A.Sizeof_type ty -> emit c (B.Isizeof_type ty) loc
  | A.Sizeof_expr a ->
    compile_value c a;
    emit c B.Isizeof_expr loc
  | A.New { ty; array_size; _ } -> (
      match array_size with
      | Some sz ->
        compile_value c sz;
        emit c (B.Inew { ty; has_size = true }) loc
      | None -> emit c (B.Inew { ty; has_size = false }) loc)
  | A.Delete { target; _ } ->
    compile_value c target;
    emit c (B.Idelete { drop = false; loc }) loc
  | A.Throw None -> emit c (B.Ithrow { has_value = false }) loc
  | A.Throw (Some a) ->
    compile_value c a;
    emit c (B.Ithrow { has_value = true }) loc

(* value discarded: use drop-fused forms and elide pure constants *)
and compile_drop c (e : A.expr) =
  let loc = e.A.eloc in
  match e.A.e with
  | A.Assign (op, lhs, rhs) -> compile_assign c op lhs rhs ~drop:true ~loc
  | A.Unary ((A.Pre_inc | A.Pre_dec) as op, a) ->
    compile_incdec c a ~pre:true ~delta:(if op = A.Pre_inc then 1 else -1) ~drop:true
  | A.Postfix (op, a) ->
    compile_incdec c a ~pre:false
      ~delta:(match op with A.Post_inc -> 1 | A.Post_dec -> -1)
      ~drop:true
  | A.Call (f, args) -> compile_call c f args ~drop:true ~loc
  | A.Kernel_launch { kernel; grid; block; args } ->
    compile_kernel c kernel grid block args ~drop:true ~loc
  | A.Delete { target; _ } ->
    compile_value c target;
    emit c (B.Idelete { drop = true; loc }) loc
  | A.Binary (A.Comma, a, b) ->
    compile_drop c a;
    compile_drop c b
  | A.Int_const _ | A.Float_const _ | A.Bool_const _ | A.Str_const _
  | A.Char_const _ | A.Nullptr ->
    ()
  | A.Throw _ -> compile_value c e
  | _ ->
    compile_value c e;
    emit c B.Ipop loc

and compile_lvalue c (e : A.expr) =
  let loc = e.A.eloc in
  match e.A.e with
  | A.Id name -> (
      match Hashtbl.find_opt c.slots name with
      | Some slot -> emit c (B.Ilv_local { slot; name; loc }) loc
      | None -> emit c (B.Ilv_global { name; loc }) loc)
  | A.Unary (A.Deref, a) ->
    compile_value c a;
    emit c (B.Ilv_deref loc) loc
  | A.Index (a, i) -> compile_index c a i ~want_load:false
  | A.Member { obj; arrow; field } -> compile_member c obj arrow field ~want_load:false ~loc
  | A.C_cast (ty, inner) | A.Cpp_cast (_, ty, inner) ->
    compile_lvalue c inner;
    emit c (B.Ilv_cast ty) loc
  | _ -> emit c (B.Iraise { msg = "expression is not an lvalue"; loc }) loc

and compile_index c a i ~want_load =
  let loc = a.A.eloc in
  match (operand_of c a, operand_of c i) with
  | (Some _ as base), (Some _ as idx) ->
    emit c (B.Iindex { base; idx; want_load; loc }) loc
  | _, (Some _ as idx) ->
    compile_value c a;
    emit c (B.Iindex { base = None; idx; want_load; loc }) loc
  | _, None ->
    compile_value c a;
    compile_value c i;
    emit c (B.Iindex { base = None; idx = None; want_load; loc }) loc

and compile_member c obj arrow field ~want_load ~loc =
  let base =
    if arrow then operand_of c obj
    else
      match obj.A.e with
      | A.Id name -> Some (B.Oslot (slot_or c name, name, obj.A.eloc))
      | _ -> None
  in
  match base with
  | Some _ -> emit c (B.Imember { arrow; base; field; want_load; loc }) loc
  | None ->
    if arrow then compile_value c obj else compile_lvalue c obj;
    emit c (B.Imember { arrow; base = None; field; want_load; loc }) loc

and compile_incdec c (a : A.expr) ~pre ~delta ~drop =
  match a.A.e with
  | A.Id name ->
    emit c
      (B.Iincdec_local { slot = slot_or c name; name; pre; delta; drop; loc = a.A.eloc })
      a.A.eloc
  | _ ->
    compile_lvalue c a;
    emit c (B.Iincdec { pre; delta; drop }) a.A.eloc

and compile_assign c op (lhs : A.expr) rhs ~drop ~loc =
  match lhs.A.e with
  | A.Id name ->
    compile_value c rhs;
    emit c
      (B.Iassign_local
         { op; slot = slot_or c name; name; drop; loc; id_loc = lhs.A.eloc })
      loc
  | _ ->
    compile_lvalue c lhs;
    compile_value c rhs;
    emit c (B.Iassign { op; drop; loc }) loc

(* bare && / || in value position: branch without decision recording,
   materialize the boolean — mirrors [eval_typed]'s fresh-table
   [eval_bool_tree] with no [report_decision] *)
and compile_bare c (e : A.expr) =
  let loc = e.A.eloc in
  let lt = ref (-1) and lf = ref (-1) and lend = ref (-1) in
  compile_btree c e lt lf;
  bind c lt;
  emit_const c (Value.Vbool true, A.Tbool) loc;
  emit c (B.Ijump lend) loc;
  bind c lf;
  emit_const c (Value.Vbool false, A.Tbool) loc;
  bind c lend

and compile_btree c (e : A.expr) jt jf =
  match e.A.e with
  | A.Binary (A.Land, a, b) ->
    let mid = ref (-1) in
    compile_btree c a mid jf;
    bind c mid;
    compile_btree c b jt jf
  | A.Binary (A.Lor, a, b) ->
    let mid = ref (-1) in
    compile_btree c a jt mid;
    bind c mid;
    compile_btree c b jt jf
  | A.Unary (A.Lnot, a) -> compile_btree c a jf jt
  | _ ->
    let value = operand_of c e in
    if value = None then compile_value c e;
    emit c (B.Ibranch { value; jt; jf }) e.A.eloc

(* A control-position decision: short-circuit evaluation plus an
   [on_decision] report carrying the full MC/DC condition vector, in
   [Instrument.leaves_of] order.  Single-leaf decisions fuse the whole
   evaluate-record-report-branch sequence into one [Idecide]. *)
and compile_decision c (cond : A.expr) jt jf =
  match Instrument.leaves_of cond with
  | [ leid ] ->
    let rec peel (e : A.expr) neg =
      match e.A.e with
      | A.Unary (A.Lnot, a) -> peel a (not neg)
      | _ -> (e, neg)
    in
    let leaf, negate = peel cond false in
    let value = operand_of c leaf in
    if value = None then compile_value c leaf;
    emit c
      (B.Idecide { deid = cond.A.eid; leid; negate; value; jt; jf })
      cond.A.eloc
  | leaves ->
    let leids = Array.of_list leaves in
    emit c (B.Idec_begin (Array.length leids)) cond.A.eloc;
    let counter = ref 0 in
    let lt = ref (-1) and lf = ref (-1) in
    compile_ctree c counter cond lt lf;
    bind c lt;
    emit c
      (B.Idec_report { deid = cond.A.eid; leids; outcome = true; next = jt })
      cond.A.eloc;
    bind c lf;
    emit c
      (B.Idec_report { deid = cond.A.eid; leids; outcome = false; next = jf })
      cond.A.eloc

and compile_ctree c counter (e : A.expr) jt jf =
  match e.A.e with
  | A.Binary (A.Land, a, b) ->
    let mid = ref (-1) in
    compile_ctree c counter a mid jf;
    bind c mid;
    compile_ctree c counter b jt jf
  | A.Binary (A.Lor, a, b) ->
    let mid = ref (-1) in
    compile_ctree c counter a jt mid;
    bind c mid;
    compile_ctree c counter b jt jf
  | A.Unary (A.Lnot, a) -> compile_ctree c counter a jf jt
  | _ ->
    let idx = !counter in
    incr counter;
    let value = operand_of c e in
    if value = None then compile_value c e;
    emit c (B.Ileaf { idx; value; jt; jf }) e.A.eloc

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

and compile_args c fidx args =
  (* reference parameters receive the argument's address: the lvalue
     instructions push (Vptr p, ty), whose value component is exactly
     the Vptr the tree-walker passes *)
  let params = c.p.fns.(fidx).A.f_params in
  List.iteri
    (fun i (a : A.expr) ->
      let by_ref =
        match List.nth_opt params i with
        | Some prm -> (
            match prm.A.p_type with A.Tref _ -> true | _ -> false)
        | None -> false
      in
      if by_ref then compile_lvalue c a else compile_value c a)
    args

and compile_call c (f : A.expr) args ~drop ~loc =
  let nargs = List.length args in
  match f.A.e with
  | A.Id name -> (
      match Builtins.lookup name with
      | Some _ ->
        List.iter (compile_value c) args;
        emit c (B.Ibuiltin { name; nargs; drop; loc }) loc
      | None -> (
          match resolve_fidx c.p name with
          | Some fidx ->
            compile_args c fidx args;
            emit c (B.Icall { fidx; nargs; drop }) loc
          | None ->
            emit c (B.Iraise { msg = "call to undefined function " ^ name; loc }) loc))
  | A.Member { field; _ } -> (
      (* method-style call: resolved by simple name, object not evaluated *)
      match resolve_fidx c.p field with
      | Some fidx ->
        compile_args c fidx args;
        emit c (B.Icall { fidx; nargs; drop }) loc
      | None -> emit c (B.Iraise { msg = "call to undefined method " ^ field; loc }) loc)
  | _ -> emit c (B.Iraise { msg = "call through non-identifier"; loc }) loc

and compile_kernel c (kernel : A.expr) grid block args ~drop ~loc =
  match kernel.A.e with
  | A.Id name -> (
      match resolve_fidx c.p name with
      | Some fidx ->
        let nargs = List.length args in
        compile_value c grid;
        compile_value c block;
        emit c (B.Ikernel_prep { fidx; nargs; loc }) loc;
        compile_args c fidx args;
        emit c (B.Ikernel_run { fidx; nargs }) loc;
        if not drop then emit_const c (Value.Vvoid, A.Tvoid) loc
      | None ->
        emit c (B.Iraise { msg = "launch of undefined kernel " ^ name; loc }) loc)
  | _ -> emit c (B.Iraise { msg = "kernel launch of non-identifier"; loc }) loc

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let find_label senv l = List.find_map (List.assoc_opt l) senv.labels

let pop_handlers_to c senv target_depth loc =
  if senv.hdepth > target_depth then
    emit c (B.Ipop_handlers (senv.hdepth - target_depth)) loc

let rec compile_stmt c senv (stmt : A.stmt) =
  let loc = stmt.A.sloc in
  let sid = stmt.A.sid in
  let probe () = emit c (B.Iprobe sid) loc in
  match stmt.A.s with
  | A.Sempty -> ()
  | A.Sexpr e ->
    probe ();
    compile_drop c e
  | A.Sdecl [] -> probe ()
  | A.Sdecl ds -> compile_decls c ds ~sid:(Some sid)
  | A.Sblock stmts -> compile_block c senv stmts
  | A.Sif { cond; then_; else_ } -> (
      probe ();
      let lt = ref (-1) and lf = ref (-1) in
      compile_decision c cond lt lf;
      bind c lt;
      match else_ with
      | None ->
        compile_stmt c senv then_;
        bind c lf
      | Some e ->
        let lend = ref (-1) in
        compile_stmt c senv then_;
        emit c (B.Ijump lend) loc;
        bind c lf;
        compile_stmt c senv e;
        bind c lend)
  | A.Swhile (cond, body) ->
    probe ();
    let lbody = ref (-1) and lcond = ref (-1) and lend = ref (-1) in
    emit c (B.Ijump lcond) loc;
    bind c lbody;
    compile_stmt c
      { senv with brk = Some (lend, senv.hdepth); cont = Some (lcond, senv.hdepth) }
      body;
    bind c lcond;
    (* loop rotation: the decision's true-branch is the back-jump *)
    compile_decision c cond lbody lend;
    bind c lend
  | A.Sdo_while (body, cond) ->
    probe ();
    let lbody = ref (-1) and lcond = ref (-1) and lend = ref (-1) in
    bind c lbody;
    compile_stmt c
      { senv with brk = Some (lend, senv.hdepth); cont = Some (lcond, senv.hdepth) }
      body;
    bind c lcond;
    compile_decision c cond lbody lend;
    bind c lend
  | A.Sfor { init; cond; update; body } ->
    probe ();
    (match init with
     | A.Fi_decl ds -> compile_decls c ds ~sid:None
     | A.Fi_expr e -> compile_drop c e
     | A.Fi_empty -> ());
    let lbody = ref (-1) and lcont = ref (-1) and lcond = ref (-1) and lend = ref (-1) in
    let senv' =
      { senv with brk = Some (lend, senv.hdepth); cont = Some (lcont, senv.hdepth) }
    in
    (match cond with
     | Some cnd ->
       emit c (B.Ijump lcond) loc;
       bind c lbody;
       compile_stmt c senv' body;
       bind c lcont;
       Option.iter (compile_drop c) update;
       bind c lcond;
       compile_decision c cnd lbody lend
     | None ->
       bind c lbody;
       compile_stmt c senv' body;
       bind c lcont;
       Option.iter (compile_drop c) update;
       emit c (B.Ijump lbody) loc);
    bind c lend
  | A.Sswitch (scrutinee, body) -> compile_switch c senv ~sid ~loc scrutinee body
  | A.Scase _ | A.Sdefault -> ()
  | A.Sbreak -> (
      probe ();
      match senv.brk with
      | Some (target, bdepth) ->
        pop_handlers_to c senv bdepth loc;
        emit c (B.Ijump target) loc
      | None -> emit c (B.Iraise_sig `Break) loc)
  | A.Scontinue -> (
      probe ();
      match senv.cont with
      | Some (target, cdepth) ->
        pop_handlers_to c senv cdepth loc;
        emit c (B.Ijump target) loc
      | None -> emit c (B.Iraise_sig `Continue) loc)
  | A.Sreturn None ->
    emit c (B.Ireturn { value = None; has_value = false; sid = Some sid }) loc
  | A.Sreturn (Some e) -> (
      match operand_of c e with
      | Some _ as value ->
        emit c (B.Ireturn { value; has_value = true; sid = Some sid }) loc
      | None ->
        probe ();
        compile_value c e;
        emit c (B.Ireturn { value = None; has_value = true; sid = None }) loc)
  | A.Sgoto l -> (
      probe ();
      match find_label senv l with
      | Some (target, ldepth) ->
        pop_handlers_to c senv ldepth loc;
        emit c (B.Ijump target) loc
      | None ->
        (* no enclosing block list declares the label: the signal escapes
           the activation, exactly like the tree-walker's unmatched
           [Goto_signal] *)
        emit c (B.Iraise_goto l) loc)
  | A.Slabel (_, inner) -> compile_stmt c senv inner
  | A.Stry { body; catches } -> (
      probe ();
      match catches with
      | [] ->
        (* no handlers: a throw re-raises unchanged, so no frame is pushed *)
        compile_stmt c senv body
      | (_, handler) :: _ ->
        let lh = ref (-1) and lend = ref (-1) in
        emit c (B.Ipush_handler lh) loc;
        compile_stmt c { senv with hdepth = senv.hdepth + 1 } body;
        emit c (B.Ipop_handlers 1) loc;
        emit c (B.Ijump lend) loc;
        bind c lh;
        compile_stmt c senv handler;
        bind c lend)

and compile_block c senv stmts =
  (* top-level labels of this list form one goto scope (first occurrence
     of a duplicated label wins, like the tree-walker's find_label) *)
  let scope =
    List.rev
      (List.fold_left
         (fun acc (s : A.stmt) ->
           match s.A.s with
           | A.Slabel (l, _) when not (List.mem_assoc l acc) ->
             (l, (ref (-1), senv.hdepth)) :: acc
           | _ -> acc)
         [] stmts)
  in
  let senv' = if scope = [] then senv else { senv with labels = scope :: senv.labels } in
  List.iter
    (fun (s : A.stmt) ->
      (match s.A.s with
       | A.Slabel (l, _) -> (
           match List.assoc_opt l scope with
           | Some (r, _) when !r < 0 -> r := c.len
           | _ -> ())
       | _ -> ());
      compile_stmt c senv' s)
    stmts

and compile_decls c ds ~sid =
  List.iteri
    (fun k (d : A.var_decl) -> compile_decl c d ~sid:(if k = 0 then sid else None))
    ds

and compile_decl c (d : A.var_decl) ~sid =
  let slot = slot_or c d.A.v_name in
  let ty = d.A.v_type in
  let loc = d.A.v_loc in
  match d.A.v_init with
  | None -> emit c (B.Ideclare { slot; ty; sid }) loc
  | Some init -> (
      match const_of c.p init with
      | Some cv -> emit c (B.Ideclare_const { slot; ty; cidx = pool_add c.p cv; sid }) loc
      | None ->
        (* the cell is allocated before the initializer runs (the
           initializer sees the previous binding of the name), and the
           slot is bound only afterwards *)
        emit c (B.Ideclare_alloc { ty; sid }) loc;
        compile_value c init;
        emit c (B.Ideclare_init { slot; ty }) loc)

and compile_switch c senv ~sid ~loc scrutinee body =
  emit c (B.Iprobe sid) loc;
  let stmts = match body.A.s with A.Sblock ss -> ss | _ -> [ body ] in
  let lend = ref (-1) in
  (* clause numbering walks cases and default in encounter order *)
  let clause = ref 0 in
  let cases_rev = ref [] in
  let default_ref = ref (-1) in
  let default_info = ref None in
  List.iter
    (fun (s : A.stmt) ->
      match s.A.s with
      | A.Scase ce ->
        cases_rev := (ce, ref (-1), !clause) :: !cases_rev;
        incr clause
      | A.Sdefault ->
        default_info := Some (default_ref, !clause);
        incr clause
      | _ -> ())
    stmts;
  let cases = List.rev !cases_rev in
  let fold_case (ce : A.expr) =
    match const_of c.p ce with
    | Some (((Value.Vint _ | Value.Vfloat _ | Value.Vbool _ | Value.Vnull) as v), _) ->
      Some (Value.as_int v)
    | _ -> None
  in
  let folded = List.map (fun (ce, r, cl) -> (fold_case ce, ce, r, cl)) cases in
  let case_clauses = Array.of_list (List.map (fun (_, _, _, cl) -> cl) folded) in
  compile_value c scrutinee;
  if List.for_all (fun (f, _, _, _) -> f <> None) folded then
    emit c
      (B.Iswitch
         {
           cases =
             Array.of_list (List.map (fun (f, _, r, _) -> (Option.get f, r)) folded);
           case_clauses;
           default = !default_info;
           sid;
           end_ = lend;
         })
      loc
  else begin
    (* dynamic case expressions: the scrutinee is coerced to an integer
       before any case expression runs, as in the tree-walker *)
    emit c B.Ias_int loc;
    List.iter (fun (_, ce, _, _) -> compile_value c ce) folded;
    emit c
      (B.Iswitch_dyn
         {
           ncases = List.length folded;
           targets = Array.of_list (List.map (fun (_, _, r, _) -> r) folded);
           case_clauses;
           default = !default_info;
           sid;
           end_ = lend;
         })
      loc
  end;
  (* the body list is not a goto scope: the tree-walker dispatches into
     it directly without exec_block's label handling *)
  let senv' = { senv with brk = Some (lend, senv.hdepth) } in
  let case_queue = ref (List.map (fun (_, _, r, _) -> r) folded) in
  List.iter
    (fun (s : A.stmt) ->
      (match s.A.s with
       | A.Scase _ -> (
           match !case_queue with
           | r :: rest ->
             r := c.len;
             case_queue := rest
           | [] -> ())
       | A.Sdefault -> default_ref := c.len
       | _ -> ());
      compile_stmt c senv' s)
    stmts;
  bind c lend

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let compile_fn p (fn : A.func) : B.cfn =
  let names = A.local_names_of_func fn in
  let slots = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace slots n i) names;
  let c = { p; slots; code = [||]; locs = [||]; len = 0 } in
  (match fn.A.f_body with
   | Some body -> compile_stmt c { brk = None; cont = None; labels = []; hdepth = 0 } body
   | None -> ());
  let cfn =
    {
      B.cf_func = fn;
      cf_qname = A.qualified_name fn;
      cf_code = Array.sub c.code 0 c.len;
      cf_locs = Array.sub c.locs 0 c.len;
      cf_n_slots = List.length names;
      cf_param_slots =
        Array.of_list
          (List.map (fun (prm : A.param) -> Hashtbl.find slots prm.A.p_name) fn.A.f_params);
      cf_max_stack = 0;
    }
  in
  { cfn with B.cf_max_stack = B.validate cfn }

(* Probe operands and collector keys are raw eids/sids, which stay
   distinct across the units of one program only while their path tags
   do: reject the same path twice, or two paths whose tags collide. *)
let check_id_tags (tus : A.tu list) =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (tu : A.tu) ->
      let tag = Cfront.Parser.id_tag tu.A.tu_file in
      match Hashtbl.find_opt seen tag with
      | Some other ->
        invalid_arg
          (Printf.sprintf
             "Coverage.Compile: units %S and %S share an id tag" other
             tu.A.tu_file)
      | None -> Hashtbl.replace seen tag tu.A.tu_file)
    tus

(* The global initializers of every unit, in load order, as one
   straight-line sequence.  Each stores through the global's qualified
   name, so same-named globals in different namespaces each get their
   own value. *)
let compile_init p (tus : A.tu list) : B.init =
  let c = { p; slots = Hashtbl.create 1; code = [||]; locs = [||]; len = 0 } in
  List.iter
    (fun (tu : A.tu) ->
      List.iter
        (fun (g : A.global_var) ->
          match g.A.g_decl.A.v_init with
          | Some init when not g.A.g_extern ->
            compile_value c init;
            emit c (B.Istore_global (Runtime.global_name g)) g.A.g_decl.A.v_loc
          | _ -> ())
        (A.globals_of_tu tu))
    tus;
  let code = Array.sub c.code 0 c.len in
  {
    B.i_code = code;
    i_locs = Array.sub c.locs 0 c.len;
    i_max_stack = B.validate_code code;
  }

let compile (tus : A.tu list) : B.program =
  check_id_tags tus;
  (* pass 1: the enum and function tables, unit by unit *)
  let enums = Hashtbl.create 16 in
  let findex = Hashtbl.create 64 in
  let fns_rev = ref [] in
  let nfns = ref 0 in
  List.iter
    (fun (tu : A.tu) ->
      A.iter_tops
        (fun top ->
          match top with
          | A.Tenum e ->
            let next = ref 0L in
            List.iter
              (fun (name, v) ->
                let v64 = match v with Some i -> Int64.of_int i | None -> !next in
                Hashtbl.replace enums name v64;
                next := Int64.add v64 1L)
              e.A.en_items
          | _ -> ())
        tu.A.tops;
      List.iter
        (fun (fn : A.func) ->
          if fn.A.f_body <> None then begin
            let fidx = !nfns in
            fns_rev := fn :: !fns_rev;
            incr nfns;
            Hashtbl.replace findex (A.qualified_name fn) fidx;
            if not (Hashtbl.mem findex fn.A.f_name) then
              Hashtbl.replace findex fn.A.f_name fidx
          end)
        (A.functions_of_tu tu))
    tus;
  let fns = Array.of_list (List.rev !fns_rev) in
  let p =
    { enums; findex; fns; pool_rev = []; pool_len = 0; pool_tbl = Hashtbl.create 64 }
  in
  (* pass 2: compile every body and the initializers against the
     complete tables *)
  let cfns = Array.map (compile_fn p) fns in
  let init = compile_init p tus in
  {
    B.p_tus = tus;
    p_fns = cfns;
    p_init = init;
    p_pool = Array.of_list (List.rev p.pool_rev);
    p_index = findex;
  }
