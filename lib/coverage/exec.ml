(** Bytecode dispatch loop of the coverage engine.

    Runs a {!Bytecode.program} against a {!Runtime.env}: the runtime
    holds the memory, globals, hooks, exception protocol and step
    counter, and the loop calls {!Runtime.tick} exactly once per
    dispatched instruction, so [env.steps] is the dispatch count the
    `compile` bench compares against the tree-walking oracle's node
    count.

    Semantic helpers ([size_of], [convert_to], [arith_binop],
    [find_global], …) live in {!Runtime}, which the oracle of the
    differential tests shares, so the two can only diverge in
    evaluation order — and the compiler's operand-fusion rules keep
    even that aligned on every non-error path. *)

module A = Cfront.Ast
module B = Bytecode
module R = Runtime

(* rvalue decay for an identifier: arrays decay to a pointer to their
   first cell, struct values are their block *)
let decay_id env (p, ty) =
  match R.strip_const ty with
  | A.Tarray (elem, _) -> (Value.Vptr p, A.Tptr elem)
  | A.Tnamed _ -> (Value.Vptr p, ty)
  | _ -> (Memory.load env.R.mem p, ty)

(* rvalue load through a member/index cell: aggregates stay a pointer
   with their own type (no array decay — matches the tree-walker) *)
let load_or_ptr env (p, ty) =
  match R.strip_const ty with
  | A.Tnamed _ | A.Tarray _ -> (Value.Vptr p, ty)
  | _ -> (Memory.load env.R.mem p, ty)

let global_rvalue env name loc =
  match R.find_global env name with
  | Some cell -> decay_id env cell
  | None ->
    if name = "NULL" then (Value.Vnull, A.Tptr A.Tvoid)
    else raise (R.Runtime_error ("unbound identifier " ^ name, loc))

let global_lvalue env name loc =
  match R.find_global env name with
  | Some cell -> cell
  | None -> raise (R.Runtime_error ("unbound identifier " ^ name, loc))

type activation = {
  env : R.env;
  prog : B.program;
  slots : (Value.ptr * A.ctype) option array;
  stack : (Value.t * A.ctype) array;
  mutable sp : int;
  mutable decs : bool option array list;
  mutable handlers : (int * int * int) list;  (** target pc, sp, dec depth *)
}

let slot_cell act slot name loc =
  let cell = if slot >= 0 then act.slots.(slot) else None in
  match cell with
  | Some c -> c
  | None -> global_lvalue act.env name loc

let local_rvalue act slot name loc =
  let cell = if slot >= 0 then act.slots.(slot) else None in
  match cell with
  | Some c -> decay_id act.env c
  | None -> global_rvalue act.env name loc

let operand_rvalue act = function
  | B.Oconst i -> act.prog.B.p_pool.(i)
  | B.Oslot (slot, name, loc) -> local_rvalue act slot name loc

let push act v =
  act.stack.(act.sp) <- v;
  act.sp <- act.sp + 1

let pop act =
  act.sp <- act.sp - 1;
  act.stack.(act.sp)

(* fused operand or top of stack *)
let take act = function Some op -> operand_rvalue act op | None -> pop act

(* typed binary operator: pointer +/- int uses the pointee stride, the
   rest is [Runtime.arith_binop]; result type from the result value *)
let binop_apply env op (va, ta) (vb, _) loc =
  let result =
    match (op, va, vb) with
    | (A.Add | A.Sub), Value.Vptr p, _
      when not (match vb with Value.Vptr _ -> true | _ -> false) ->
      let stride = R.size_of env (R.pointee env ta) in
      let n = Int64.to_int (Value.as_int vb) * stride in
      Value.Vptr (Memory.shift p (if op = A.Add then n else -n))
    | _ -> R.arith_binop env op va vb loc
  in
  let ty =
    match result with
    | Value.Vbool _ -> A.Tbool
    | Value.Vfloat _ -> A.Tdouble
    | Value.Vptr _ -> ta
    | _ -> A.int_t
  in
  (result, ty)

let incdec_new old delta =
  match old with
  | Value.Vptr q -> Value.Vptr (Memory.shift q delta)
  | Value.Vfloat f -> Value.Vfloat (f +. float_of_int delta)
  | v -> Value.Vint (Int64.add (Value.as_int v) (Int64.of_int delta))

let assign_op_binop = function
  | A.A_add -> A.Add
  | A.A_sub -> A.Sub
  | A.A_mul -> A.Mul
  | A.A_div -> A.Div
  | A.A_mod -> A.Mod
  | A.A_shl -> A.Shl
  | A.A_shr -> A.Shr
  | A.A_and -> A.Band
  | A.A_or -> A.Bor
  | A.A_xor -> A.Bxor
  | A.A_eq -> assert false

(* store into an lvalue cell; whole-struct assignment copies the block *)
let assign_store env op (p, ty) rv loc =
  match (R.strip_const ty, rv) with
  | A.Tnamed name, Value.Vptr src when Hashtbl.mem env.R.layouts name ->
    Memory.copy env.R.mem ~src ~dst:p (R.size_of env ty);
    (Value.Vptr p, ty)
  | _ ->
    let newv =
      match op with
      | A.A_eq -> R.convert_to ty rv
      | _ ->
        let old = Memory.load env.R.mem p in
        R.convert_to ty (R.arith_binop env (assign_op_binop op) old rv loc)
    in
    Memory.store env.R.mem p newv;
    (newv, ty)

let member_cell env (p, record_ty) field loc =
  let record_name =
    match R.strip_const record_ty with
    | A.Tnamed n -> n
    | _ -> raise (R.Runtime_error ("member access on non-struct", loc))
  in
  match Hashtbl.find_opt env.R.layouts record_name with
  | None -> raise (R.Runtime_error ("unknown struct " ^ record_name, loc))
  | Some l -> (
      match List.assoc_opt field l.R.l_fields with
      | None ->
        raise
          (R.Runtime_error (Printf.sprintf "no field %s in %s" field record_name, loc))
      | Some (off, fty) -> (Memory.shift p off, fty))

let arrow_base env (v, ty) loc =
  match v with
  | Value.Vptr p -> (p, R.pointee env ty)
  | Value.Vnull -> raise (R.Runtime_error ("null -> access", loc))
  | _ -> raise (R.Runtime_error ("-> on non-pointer", loc))

let index_cell env (va, ta) idx loc =
  match va with
  | Value.Vptr p ->
    let elem = R.pointee env ta in
    (Memory.shift p (idx * R.size_of env elem), elem)
  | Value.Vnull -> raise (R.Runtime_error ("index of null pointer", loc))
  | _ -> raise (R.Runtime_error ("index of non-pointer", loc))

let declare_cell env ty =
  Memory.alloc env.R.mem ~init:(R.default_value ty) (Stdlib.max 1 (R.size_of env ty))

let probe (env : R.env) sid =
  env.R.hooks.R.on_stmt sid;
  if env.R.cur_fn <> "" then env.R.hooks.R.on_function_stmt env.R.cur_fn

let probe_opt env = function Some sid -> probe env sid | None -> ()

let truncate_decs act depth =
  let rec go l = if List.length l <= depth then l else go (List.tl l) in
  act.decs <- go act.decs

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let rec exec_call (env : R.env) (prog : B.program) fidx (args : Value.t list) : Value.t
    =
  let cf = prog.B.p_fns.(fidx) in
  let fn = cf.B.cf_func in
  env.R.hooks.R.on_call cf.B.cf_qname;
  let caller_fn = env.R.cur_fn in
  env.R.cur_fn <- cf.B.cf_qname;
  Fun.protect ~finally:(fun () -> env.R.cur_fn <- caller_fn) @@ fun () ->
  let slots = Array.make (Stdlib.max 1 cf.B.cf_n_slots) None in
  List.iteri
    (fun i (p : A.param) ->
      let v = try List.nth args i with _ -> R.default_value p.A.p_type in
      let ty = p.A.p_type in
      let slot = cf.B.cf_param_slots.(i) in
      match (ty, v) with
      | A.Tref inner, Value.Vptr ptr -> slots.(slot) <- Some (ptr, inner)
      | _ -> (
          match (R.strip_const ty, v) with
          | A.Tnamed _, Value.Vptr src ->
            let size = R.size_of env ty in
            let dst = Memory.alloc env.R.mem size in
            Memory.copy env.R.mem ~src ~dst size;
            slots.(slot) <- Some (dst, ty)
          | _ ->
            let cell = Memory.alloc env.R.mem 1 in
            Memory.store env.R.mem cell (R.convert_to ty v);
            slots.(slot) <- Some (cell, ty)))
    fn.A.f_params;
  exec_code env prog ~code:cf.B.cf_code ~locs:cf.B.cf_locs ~max_stack:cf.B.cf_max_stack
    slots

(* run one code sequence (a function body or the global initializers)
   in a fresh activation over [slots] *)
and exec_code env prog ~code ~locs ~max_stack slots : Value.t =
  let act =
    {
      env;
      prog;
      slots;
      stack = Array.make (Stdlib.max 1 max_stack) (Value.Vvoid, A.Tvoid);
      sp = 0;
      decs = [];
      handlers = [];
    }
  in
  let len = Array.length code in
  let rec step pc : Value.t =
    if pc >= len then Value.Vvoid
    else begin
      R.tick env;
      match code.(pc) with
      | B.Iconst i ->
        push act prog.B.p_pool.(i);
        step (pc + 1)
      | B.Ilocal { slot; name; loc } ->
        push act (local_rvalue act slot name loc);
        step (pc + 1)
      | B.Iglobal { name; loc } ->
        push act (global_rvalue env name loc);
        step (pc + 1)
      | B.Icuda_dim key ->
        push act
          ( Value.Vint (Option.value ~default:0L (List.assoc_opt key env.R.cuda_dims)),
            A.int_t );
        step (pc + 1)
      | B.Ilv_local { slot; name; loc } ->
        let p, ty = slot_cell act slot name loc in
        push act (Value.Vptr p, ty);
        step (pc + 1)
      | B.Ilv_global { name; loc } ->
        let p, ty = global_lvalue env name loc in
        push act (Value.Vptr p, ty);
        step (pc + 1)
      | B.Ilv_deref loc ->
        (match pop act with
         | Value.Vptr p, ty -> push act (Value.Vptr p, R.pointee env ty)
         | Value.Vnull, _ -> raise (R.Runtime_error ("null pointer dereference", loc))
         | _ -> raise (R.Runtime_error ("dereference of non-pointer", loc)));
        step (pc + 1)
      | B.Iindex { base; idx; want_load; loc } ->
        (* stack order is base below idx, so the index pops first *)
        let iv = match idx with Some op -> operand_rvalue act op | None -> pop act in
        let bv = take act base in
        let n = Int64.to_int (Value.as_int (fst iv)) in
        let cell = index_cell env bv n loc in
        push act (if want_load then load_or_ptr env cell else (Value.Vptr (fst cell), snd cell));
        step (pc + 1)
      | B.Imember { arrow; base; field; want_load; loc } ->
        let cell =
          if arrow then arrow_base env (take act base) loc
          else
            match base with
            | Some (B.Oslot (slot, name, id_loc)) -> slot_cell act slot name id_loc
            | Some (B.Oconst i) ->
              (* a constant can never be a struct lvalue; report exactly
                 what the tree-walker's member lookup would *)
              ignore prog.B.p_pool.(i);
              raise (R.Runtime_error ("expression is not an lvalue", loc))
            | None ->
              let v, ty = pop act in
              (match v with
               | Value.Vptr p -> (p, ty)
               | _ -> raise (R.Runtime_error ("expression is not an lvalue", loc)))
        in
        let cell = member_cell env cell field loc in
        push act (if want_load then load_or_ptr env cell else (Value.Vptr (fst cell), snd cell));
        step (pc + 1)
      | B.Ilv_cast ty ->
        let v, _ = pop act in
        push act (v, ty);
        step (pc + 1)
      | B.Ilv_load ->
        (match pop act with
         | Value.Vptr p, ty -> push act (Memory.load env.R.mem p, ty)
         | _ -> raise (R.Runtime_error ("dereference of non-pointer", locs.(pc))));
        step (pc + 1)
      | B.Ideref_load loc ->
        (match pop act with
         | Value.Vptr p, ty ->
           let elem = R.pointee env ty in
           push act
             (match R.strip_const elem with
              | A.Tnamed _ -> (Value.Vptr p, elem)
              | _ -> (Memory.load env.R.mem p, elem))
         | Value.Vnull, _ -> raise (R.Runtime_error ("null pointer dereference", loc))
         | _ -> raise (R.Runtime_error ("dereference of non-pointer", loc)));
        step (pc + 1)
      | B.Iaddr_of ->
        let v, ty = pop act in
        push act (v, A.Tptr ty);
        step (pc + 1)
      | B.Iaddr_local { slot; name; loc } ->
        let p, ty = slot_cell act slot name loc in
        push act (Value.Vptr p, A.Tptr ty);
        step (pc + 1)
      | B.Iunop { op; loc } ->
        let v, ty = pop act in
        (match op with
         | A.Neg ->
           push act
             (match v with
              | Value.Vfloat f -> (Value.Vfloat (-.f), ty)
              | v -> (Value.Vint (Int64.neg (Value.as_int v)), ty))
         | A.Lnot -> push act (Value.Vbool (not (Value.truthy v)), A.Tbool)
         | A.Bnot -> push act (Value.Vint (Int64.lognot (Value.as_int v)), A.int_t)
         | A.Pos | A.Pre_inc | A.Pre_dec | A.Deref | A.Addr_of ->
           raise (R.Runtime_error ("unexpected unary opcode", loc)));
        step (pc + 1)
      | B.Iincdec { pre; delta; drop } ->
        let pv, ty = pop act in
        let p = match pv with Value.Vptr p -> p | _ -> assert false in
        let old = Memory.load env.R.mem p in
        let nv = incdec_new old delta in
        Memory.store env.R.mem p nv;
        if not drop then push act ((if pre then nv else old), ty);
        step (pc + 1)
      | B.Iincdec_local { slot; name; pre; delta; drop; loc } ->
        let p, ty = slot_cell act slot name loc in
        let old = Memory.load env.R.mem p in
        let nv = incdec_new old delta in
        Memory.store env.R.mem p nv;
        if not drop then push act ((if pre then nv else old), ty);
        step (pc + 1)
      | B.Ibinop { op; rhs; loc } ->
        let b = match rhs with Some o -> operand_rvalue act o | None -> pop act in
        let a = pop act in
        push act (binop_apply env op a b loc);
        step (pc + 1)
      | B.Ibinop2 { op; lhs; rhs; loc } ->
        let a = operand_rvalue act lhs in
        let b = operand_rvalue act rhs in
        push act (binop_apply env op a b loc);
        step (pc + 1)
      | B.Iassign { op; drop; loc } ->
        let rv, _ = pop act in
        let pv, ty = pop act in
        let p = match pv with Value.Vptr p -> p | _ -> assert false in
        let r = assign_store env op (p, ty) rv loc in
        if not drop then push act r;
        step (pc + 1)
      | B.Iassign_local { op; slot; name; drop; loc; id_loc } ->
        let rv, _ = pop act in
        let cell = slot_cell act slot name id_loc in
        let r = assign_store env op cell rv loc in
        if not drop then push act r;
        step (pc + 1)
      | B.Ipop ->
        ignore (pop act);
        step (pc + 1)
      | B.Icast ty ->
        let v, _ = pop act in
        push act (R.convert_to ty v, ty);
        step (pc + 1)
      | B.Isizeof_type ty ->
        push act (Value.Vint (Int64.of_int (R.size_of env ty)), A.int_t);
        step (pc + 1)
      | B.Isizeof_expr ->
        let _, ty = pop act in
        push act (Value.Vint (Int64.of_int (R.size_of env ty)), A.int_t);
        step (pc + 1)
      | B.Inew { ty; has_size } ->
        let n = if has_size then Int64.to_int (Value.as_int (fst (pop act))) else 1 in
        let p = Memory.alloc env.R.mem ~init:(R.default_value ty) (n * R.size_of env ty) in
        push act (Value.Vptr p, A.Tptr ty);
        step (pc + 1)
      | B.Idelete { drop; loc } ->
        (match fst (pop act) with
         | Value.Vptr p -> Memory.free env.R.mem p
         | Value.Vnull -> ()
         | _ -> raise (R.Runtime_error ("delete of non-pointer", loc)));
        if not drop then push act (Value.Vvoid, A.Tvoid);
        step (pc + 1)
      | B.Ithrow { has_value } ->
        raise (R.Cxx_throw (if has_value then fst (pop act) else Value.Vint 0L))
      | B.Ias_int ->
        let v, _ = pop act in
        push act (Value.Vint (Value.as_int v), A.int_t);
        step (pc + 1)
      | B.Ijump t -> step !t
      | B.Ibranch { value; jt; jf } ->
        step (if Value.truthy (fst (take act value)) then !jt else !jf)
      | B.Idecide { deid; leid; negate; value; jt; jf } ->
        let v = Value.truthy (fst (take act value)) in
        let outcome = if negate then not v else v in
        env.R.hooks.R.on_decision deid [ (leid, Some v) ] outcome;
        step (if outcome then !jt else !jf)
      | B.Idec_begin n ->
        act.decs <- Array.make n None :: act.decs;
        step (pc + 1)
      | B.Ileaf { idx; value; jt; jf } ->
        let v = Value.truthy (fst (take act value)) in
        (List.hd act.decs).(idx) <- Some v;
        step (if v then !jt else !jf)
      | B.Idec_report { deid; leids; outcome; next } ->
        let vec = List.hd act.decs in
        act.decs <- List.tl act.decs;
        let vector = Array.to_list (Array.mapi (fun i o -> (leids.(i), o)) vec) in
        env.R.hooks.R.on_decision deid vector outcome;
        step !next
      | B.Iprobe sid ->
        probe env sid;
        step (pc + 1)
      | B.Ideclare { slot; ty; sid } ->
        probe_opt env sid;
        let p = declare_cell env ty in
        if slot >= 0 then act.slots.(slot) <- Some (p, ty);
        step (pc + 1)
      | B.Ideclare_const { slot; ty; cidx; sid } ->
        probe_opt env sid;
        let p = declare_cell env ty in
        Memory.store env.R.mem p (R.convert_to ty (fst prog.B.p_pool.(cidx)));
        if slot >= 0 then act.slots.(slot) <- Some (p, ty);
        step (pc + 1)
      | B.Ideclare_alloc { ty; sid } ->
        probe_opt env sid;
        let p = declare_cell env ty in
        push act (Value.Vptr p, ty);
        step (pc + 1)
      | B.Ideclare_init { slot; ty } ->
        let v, _ = pop act in
        let pv, _ = pop act in
        let p = match pv with Value.Vptr p -> p | _ -> assert false in
        (match (R.strip_const ty, v) with
         | A.Tnamed _, Value.Vptr src ->
           Memory.copy env.R.mem ~src ~dst:p (R.size_of env ty)
         | _ -> Memory.store env.R.mem p (R.convert_to ty v));
        if slot >= 0 then act.slots.(slot) <- Some (p, ty);
        step (pc + 1)
      | B.Istore_global name ->
        R.store_global env name (fst (pop act));
        step (pc + 1)
      | B.Iswitch { cases; case_clauses; default; sid; end_ } ->
        let v = Value.as_int (fst (pop act)) in
        let n = Array.length cases in
        let rec find i =
          if i >= n then None
          else if Int64.equal (fst cases.(i)) v then Some i
          else find (i + 1)
        in
        (match find 0 with
         | Some i ->
           env.R.hooks.R.on_switch sid case_clauses.(i);
           step !(snd cases.(i))
         | None -> (
             match default with
             | Some (t, clause) ->
               env.R.hooks.R.on_switch sid clause;
               step !t
             | None -> step !end_))
      | B.Iswitch_dyn { ncases; targets; case_clauses; default; sid; end_ } ->
        (* case values sit above the coerced scrutinee, in case order *)
        let cvs = Array.make ncases (Value.Vvoid, A.Tvoid) in
        for i = ncases - 1 downto 0 do
          cvs.(i) <- pop act
        done;
        let v = Value.as_int (fst (pop act)) in
        let rec find i =
          if i >= ncases then None
          else if Int64.equal (Value.as_int (fst cvs.(i))) v then Some i
          else find (i + 1)
        in
        (match find 0 with
         | Some i ->
           env.R.hooks.R.on_switch sid case_clauses.(i);
           step !(targets.(i))
         | None -> (
             match default with
             | Some (t, clause) ->
               env.R.hooks.R.on_switch sid clause;
               step !t
             | None -> step !end_))
      | B.Icall { fidx; nargs; drop } ->
        let args = ref [] in
        for _ = 1 to nargs do
          args := fst (pop act) :: !args
        done;
        let v = exec_call env prog fidx !args in
        if not drop then
          push act (v, prog.B.p_fns.(fidx).B.cf_func.A.f_ret);
        step (pc + 1)
      | B.Ibuiltin { name; nargs; drop; loc } ->
        let args = ref [] in
        for _ = 1 to nargs do
          args := fst (pop act) :: !args
        done;
        let bfn =
          match Builtins.lookup name with Some b -> b | None -> assert false
        in
        let v = Builtins.apply bfn (R.builtin_ctx env) !args loc in
        if not drop then push act (v, A.Tauto);
        step (pc + 1)
      | B.Ikernel_prep { fidx; nargs = _; loc } ->
        (* grid and block are on the stack; coerce both to ints, check
           positivity and fire the launch hook before the args run *)
        let gi = act.sp - 2 and bi = act.sp - 1 in
        let gridv = Int64.to_int (Value.as_int (fst act.stack.(gi))) in
        let blockv = Int64.to_int (Value.as_int (fst act.stack.(bi))) in
        if gridv <= 0 || blockv <= 0 then
          raise (R.Runtime_error ("non-positive launch configuration", loc));
        env.R.hooks.R.on_kernel_launch
          prog.B.p_fns.(fidx).B.cf_qname
          ~grid:gridv ~block:blockv;
        act.stack.(gi) <- (Value.Vint (Int64.of_int gridv), A.int_t);
        act.stack.(bi) <- (Value.Vint (Int64.of_int blockv), A.int_t);
        step (pc + 1)
      | B.Ikernel_run { fidx; nargs } ->
        let args = ref [] in
        for _ = 1 to nargs do
          args := fst (pop act) :: !args
        done;
        let blockv = Int64.to_int (Value.as_int (fst (pop act))) in
        let gridv = Int64.to_int (Value.as_int (fst (pop act))) in
        let saved = env.R.cuda_dims in
        (try
           for b = 0 to gridv - 1 do
             for t = 0 to blockv - 1 do
               env.R.cuda_dims <-
                 [
                   ("threadIdx.x", Int64.of_int t);
                   ("blockIdx.x", Int64.of_int b);
                   ("blockDim.x", Int64.of_int blockv);
                   ("gridDim.x", Int64.of_int gridv);
                   ("threadIdx.y", 0L); ("blockIdx.y", 0L);
                   ("blockDim.y", 1L); ("gridDim.y", 1L);
                 ];
               ignore (exec_call env prog fidx !args)
             done
           done
         with ex ->
           env.R.cuda_dims <- saved;
           raise ex);
        env.R.cuda_dims <- saved;
        step (pc + 1)
      | B.Ipush_handler t ->
        act.handlers <- (!t, act.sp, List.length act.decs) :: act.handlers;
        step (pc + 1)
      | B.Ipop_handlers n ->
        for _ = 1 to n do
          act.handlers <- List.tl act.handlers
        done;
        step (pc + 1)
      | B.Iraise { msg; loc } -> raise (R.Runtime_error (msg, loc))
      | B.Iraise_goto l -> raise (R.Goto_signal l)
      | B.Iraise_sig `Break -> raise R.Break_signal
      | B.Iraise_sig `Continue -> raise R.Continue_signal
      | B.Ireturn { value; has_value; sid } ->
        probe_opt env sid;
        (match value with
         | Some op -> fst (operand_rvalue act op)
         | None -> if has_value then fst (pop act) else Value.Vvoid)
    end
  in
  (* activation-level C++-exception dispatch: a throw unwinds to this
     activation's innermost handler (restoring the value and decision
     stacks to their push-time depths), or re-raises past it — the
     OCaml exception then keeps unwinding callers exactly like the
     tree-walker's [Stry] *)
  let rec guarded pc =
    try step pc with
    | R.Cxx_throw v -> (
        match act.handlers with
        | (tpc, tsp, tdec) :: rest ->
          act.handlers <- rest;
          act.sp <- tsp;
          truncate_decs act tdec;
          guarded tpc
        | [] -> raise (R.Cxx_throw v))
  in
  guarded 0

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let resolve_fidx (prog : B.program) name =
  match Hashtbl.find_opt prog.B.p_index name with
  | Some i -> Some i
  | None ->
    Hashtbl.fold
      (fun key i acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if Util.Strutil.ends_with ~suffix:("::" ^ name) key then Some i else None)
      prog.B.p_index None

(* declare the program's layouts and globals, then run its global
   initializers in load order, under the entry result protocol *)
let load env (prog : B.program) =
  let init = prog.B.p_init in
  R.to_result (fun () ->
      R.declare env prog.B.p_tus;
      exec_code env prog ~code:init.B.i_code ~locs:init.B.i_locs
        ~max_stack:init.B.i_max_stack [||])

let run_entry env (prog : B.program) ~entry ~args =
  match resolve_fidx prog entry with
  | None -> Error (Printf.sprintf "entry function %s not found" entry)
  | Some fidx -> R.to_result (fun () -> exec_call env prog fidx args)

let run env prog ~entry ~args =
  Result.bind (load env prog) (fun _ -> run_entry env prog ~entry ~args)

let run_entries env prog ~entries =
  match load env prog with
  | Error e -> List.map (fun entry -> (entry, Error e)) entries
  | Ok _ -> List.map (fun entry -> (entry, run_entry env prog ~entry ~args:[])) entries
