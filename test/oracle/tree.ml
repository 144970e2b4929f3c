(** Tree-walking evaluator over the coverage runtime: the differential
    oracle of the bytecode engine.  See tree.mli. *)

open Coverage
module A = Cfront.Ast
module R = Runtime

exception Return_signal of Value.t
exception Exit_loop
exception Exit_block

(* The runtime environment plus the function and enum tables, which the
   bytecode engine resolves at compile time instead ({!Compile}). *)
type t = {
  env : R.env;
  funcs : (string, A.func) Hashtbl.t;
  enums : (string, int64) Hashtbl.t;
}

let create ?hooks ?max_steps () =
  {
    env = R.create ?hooks ?max_steps ();
    funcs = Hashtbl.create 64;
    enums = Hashtbl.create 16;
  }

let env o = o.env

(* A call frame: name -> (cell, declared type), newest binding first.
   Bindings are pushed and never popped (block scoping is not modelled),
   which is what makes the bytecode engine's one-slot-per-name locals
   equivalent to the assoc list. *)
type frame = { mutable vars : (string * (Value.ptr * A.ctype)) list }

let find_var o frame name =
  match List.assoc_opt name frame.vars with
  | Some entry -> Some entry
  | None -> R.find_global o.env name

let resolve_func o name =
  match Hashtbl.find_opt o.funcs name with
  | Some f -> Some f
  | None ->
    Hashtbl.fold
      (fun key f acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if Util.Strutil.ends_with ~suffix:("::" ^ name) key then Some f else None)
      o.funcs None

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let rec eval o frame (e : A.expr) : Value.t =
  fst (eval_typed o frame e)

and eval_typed o frame (e : A.expr) : Value.t * A.ctype =
  R.tick o.env;
  let loc = e.A.eloc in
  match e.A.e with
  | A.Int_const v -> (Value.Vint v, A.int_t)
  | A.Float_const v -> (Value.Vfloat v, A.Tdouble)
  | A.Bool_const b -> (Value.Vbool b, A.Tbool)
  | A.Str_const s -> (Value.Vstr s, A.Tptr A.Tchar)
  | A.Char_const c -> (Value.Vint (Int64.of_int (Char.code c)), A.Tchar)
  | A.Nullptr -> (Value.Vnull, A.Tptr A.Tvoid)
  | A.Id name -> (
      (* CUDA dim pseudo-variables used bare (rare) *)
      match List.assoc_opt name o.env.R.cuda_dims with
      | Some v -> (Value.Vint v, A.int_t)
      | None -> (
          match Hashtbl.find_opt o.enums name with
          | Some v -> (Value.Vint v, A.int_t)
          | None -> (
              match find_var o frame name with
              | Some (p, ty) -> (
                  (* arrays decay to a pointer to their first cell *)
                  match R.strip_const ty with
                  | A.Tarray (elem, _) -> (Value.Vptr p, A.Tptr elem)
                  | A.Tnamed _ -> (Value.Vptr p, ty)  (* struct value = its block *)
                  | _ -> (Memory.load o.env.R.mem p, ty))
              | None ->
                if name = "NULL" then (Value.Vnull, A.Tptr A.Tvoid)
                else raise (R.Runtime_error ("unbound identifier " ^ name, loc)))))
  | A.Unary (op, a) -> eval_unary o frame op a loc
  | A.Postfix (op, a) ->
    let p, ty = lvalue o frame a in
    let old = Memory.load o.env.R.mem p in
    let delta = match op with A.Post_inc -> 1L | A.Post_dec -> -1L in
    let nv =
      match old with
      | Value.Vptr q -> Value.Vptr (Memory.shift q (Int64.to_int delta))
      | Value.Vfloat f -> Value.Vfloat (f +. Int64.to_float delta)
      | v -> Value.Vint (Int64.add (Value.as_int v) delta)
    in
    Memory.store o.env.R.mem p nv;
    (old, ty)
  | A.Binary (A.Land, _, _) | A.Binary (A.Lor, _, _) ->
    (* a logical tree evaluated outside control position: still short-circuit *)
    let tbl = Hashtbl.create 4 in
    let outcome = eval_bool_tree o frame tbl e in
    (Value.Vbool outcome, A.Tbool)
  | A.Binary (A.Comma, a, b) ->
    let _ = eval o frame a in
    eval_typed o frame b
  | A.Binary (op, a, b) ->
    let va, ta = eval_typed o frame a in
    let vb, _ = eval_typed o frame b in
    (* typed pointer stride for ptr +/- int *)
    let result =
      match (op, va, vb) with
      | (A.Add | A.Sub), Value.Vptr p, _
        when not (match vb with Value.Vptr _ -> true | _ -> false) ->
        let stride = R.size_of o.env (R.pointee o.env ta) in
        let n = Int64.to_int (Value.as_int vb) * stride in
        Value.Vptr (Memory.shift p (if op = A.Add then n else -n))
      | _ -> R.arith_binop o.env op va vb loc
    in
    let ty =
      match result with
      | Value.Vbool _ -> A.Tbool
      | Value.Vfloat _ -> A.Tdouble
      | Value.Vptr _ -> ta
      | _ -> A.int_t
    in
    (result, ty)
  | A.Assign (op, lhs, rhs) ->
    let p, ty = lvalue o frame lhs in
    let rv = eval o frame rhs in
    (* whole-struct assignment copies the block *)
    (match (R.strip_const ty, rv) with
     | A.Tnamed name, Value.Vptr src when Hashtbl.mem o.env.R.layouts name ->
       Memory.copy o.env.R.mem ~src ~dst:p (R.size_of o.env ty)
     | _ -> ignore rv);
    (match (R.strip_const ty, rv) with
     | A.Tnamed name, Value.Vptr _ when Hashtbl.mem o.env.R.layouts name ->
       (Value.Vptr p, ty)
     | _ ->
    let newv =
      match op with
      | A.A_eq -> R.convert_to ty rv
      | _ ->
        let old = Memory.load o.env.R.mem p in
        let bop =
          match op with
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
        in
        R.convert_to ty (R.arith_binop o.env bop old rv loc)
    in
    Memory.store o.env.R.mem p newv;
    (newv, ty))
  | A.Ternary (c, a, b) ->
    let tbl = Hashtbl.create 4 in
    let outcome = eval_bool_tree o frame tbl c in
    report_decision o tbl c outcome;
    if outcome then eval_typed o frame a else eval_typed o frame b
  | A.Call (f, args) -> eval_call o frame f args loc
  | A.Kernel_launch { kernel; grid; block; args } ->
    eval_kernel_launch o frame kernel grid block args loc
  | A.Index (a, i) ->
    let p, elem_ty = index_ptr o frame a i in
    (match R.strip_const elem_ty with
     | A.Tnamed _ | A.Tarray _ -> (Value.Vptr p, elem_ty)
     | _ -> (Memory.load o.env.R.mem p, elem_ty))
  | A.Member _ -> (
      match cuda_dim_member o e with
      | Some v -> (Value.Vint v, A.int_t)
      | None ->
        let p, ty = lvalue o frame e in
        (match R.strip_const ty with
         | A.Tnamed _ | A.Tarray _ -> (Value.Vptr p, ty)
         | _ -> (Memory.load o.env.R.mem p, ty)))
  | A.C_cast (ty, a) | A.Cpp_cast (_, ty, a) ->
    let v = eval o frame a in
    (R.convert_to ty v, ty)
  | A.Sizeof_type ty -> (Value.Vint (Int64.of_int (R.size_of o.env ty)), A.int_t)
  | A.Sizeof_expr a ->
    let _, ty = eval_typed o frame a in
    (Value.Vint (Int64.of_int (R.size_of o.env ty)), A.int_t)
  | A.New { ty; array_size; _ } ->
    let n =
      match array_size with
      | None -> 1
      | Some sz -> Int64.to_int (Value.as_int (eval o frame sz))
    in
    let p = Memory.alloc o.env.R.mem ~init:(R.default_value ty) (n * R.size_of o.env ty) in
    (Value.Vptr p, A.Tptr ty)
  | A.Delete { target; _ } ->
    (match eval o frame target with
     | Value.Vptr p -> Memory.free o.env.R.mem p
     | Value.Vnull -> ()
     | _ -> raise (R.Runtime_error ("delete of non-pointer", loc)));
    (Value.Vvoid, A.Tvoid)
  | A.Throw None -> raise (R.Cxx_throw (Value.Vint 0L))
  | A.Throw (Some a) -> raise (R.Cxx_throw (eval o frame a))

and eval_unary o frame op a loc =
  match op with
  | A.Neg -> (
      match eval_typed o frame a with
      | Value.Vfloat f, ty -> (Value.Vfloat (-.f), ty)
      | v, ty -> (Value.Vint (Int64.neg (Value.as_int v)), ty))
  | A.Pos -> eval_typed o frame a
  | A.Lnot -> (Value.Vbool (not (Value.truthy (eval o frame a))), A.Tbool)
  | A.Bnot -> (Value.Vint (Int64.lognot (Value.as_int (eval o frame a))), A.int_t)
  | A.Pre_inc | A.Pre_dec ->
    let p, ty = lvalue o frame a in
    let old = Memory.load o.env.R.mem p in
    let delta = if op = A.Pre_inc then 1L else -1L in
    let nv =
      match old with
      | Value.Vptr q -> Value.Vptr (Memory.shift q (Int64.to_int delta))
      | Value.Vfloat f -> Value.Vfloat (f +. Int64.to_float delta)
      | v -> Value.Vint (Int64.add (Value.as_int v) delta)
    in
    Memory.store o.env.R.mem p nv;
    (nv, ty)
  | A.Deref -> (
      match eval_typed o frame a with
      | Value.Vptr p, ty ->
        let elem = R.pointee o.env ty in
        (match R.strip_const elem with
         | A.Tnamed _ -> (Value.Vptr p, elem)
         | _ -> (Memory.load o.env.R.mem p, elem))
      | Value.Vnull, _ -> raise (R.Runtime_error ("null pointer dereference", loc))
      | _ -> raise (R.Runtime_error ("dereference of non-pointer", loc)))
  | A.Addr_of ->
    let p, ty = lvalue o frame a in
    (Value.Vptr p, A.Tptr ty)

and index_ptr o frame a i =
  let va, ta = eval_typed o frame a in
  let idx = Int64.to_int (Value.as_int (eval o frame i)) in
  match va with
  | Value.Vptr p ->
    let elem = R.pointee o.env ta in
    (Memory.shift p (idx * R.size_of o.env elem), elem)
  | Value.Vnull -> raise (R.Runtime_error ("index of null pointer", a.A.eloc))
  | _ -> raise (R.Runtime_error ("index of non-pointer", a.A.eloc))

and cuda_dim_member o (e : A.expr) =
  match e.A.e with
  | A.Member { obj = { e = A.Id base; _ }; arrow = false; field }
    when List.mem base R.cuda_builtin_names ->
    Some
      (Option.value ~default:0L (List.assoc_opt (base ^ "." ^ field) o.env.R.cuda_dims))
  | _ -> None

and lvalue o frame (e : A.expr) : Value.ptr * A.ctype =
  let loc = e.A.eloc in
  match e.A.e with
  | A.Id name -> (
      match find_var o frame name with
      | Some (p, ty) -> (p, ty)
      | None -> raise (R.Runtime_error ("unbound identifier " ^ name, loc)))
  | A.Unary (A.Deref, a) -> (
      match eval_typed o frame a with
      | Value.Vptr p, ty -> (p, R.pointee o.env ty)
      | Value.Vnull, _ -> raise (R.Runtime_error ("null pointer dereference", loc))
      | _ -> raise (R.Runtime_error ("dereference of non-pointer", loc)))
  | A.Index (a, i) -> index_ptr o frame a i
  | A.Member { obj; arrow; field } ->
    let p, record_ty =
      if arrow then
        match eval_typed o frame obj with
        | Value.Vptr p, ty -> (p, R.pointee o.env ty)
        | Value.Vnull, _ -> raise (R.Runtime_error ("null -> access", loc))
        | _ -> raise (R.Runtime_error ("-> on non-pointer", loc))
      else lvalue o frame obj
    in
    let record_name =
      match R.strip_const record_ty with
      | A.Tnamed n -> n
      | _ -> raise (R.Runtime_error ("member access on non-struct", loc))
    in
    (match Hashtbl.find_opt o.env.R.layouts record_name with
     | None -> raise (R.Runtime_error ("unknown struct " ^ record_name, loc))
     | Some l -> (
         match List.assoc_opt field l.l_fields with
         | None ->
           raise (R.Runtime_error (Printf.sprintf "no field %s in %s" field record_name, loc))
         | Some (off, fty) -> (Memory.shift p off, fty)))
  | A.C_cast (ty, inner) | A.Cpp_cast (_, ty, inner) ->
    (* a cast applied to an address, as in the cudaMalloc void-star idiom,
       used as an lvalue target *)
    let p, _ = lvalue o frame inner in
    (p, ty)
  | _ -> raise (R.Runtime_error ("expression is not an lvalue", loc))

(* Short-circuit evaluation of a decision tree, recording leaf outcomes. *)
and eval_bool_tree o frame tbl (e : A.expr) =
  match e.A.e with
  | A.Binary (A.Land, a, b) ->
    if eval_bool_tree o frame tbl a then eval_bool_tree o frame tbl b else false
  | A.Binary (A.Lor, a, b) ->
    if eval_bool_tree o frame tbl a then true else eval_bool_tree o frame tbl b
  | A.Unary (A.Lnot, a) -> not (eval_bool_tree o frame tbl a)
  | _ ->
    let v = Value.truthy (eval o frame e) in
    Hashtbl.replace tbl e.A.eid v;
    v

and report_decision o tbl (cond : A.expr) outcome =
  let leaves = Instrument.leaves_of cond in
  let vector = List.map (fun eid -> (eid, Hashtbl.find_opt tbl eid)) leaves in
  o.env.R.hooks.R.on_decision cond.A.eid vector outcome

and eval_decision o frame (cond : A.expr) =
  let tbl = Hashtbl.create 4 in
  let outcome = eval_bool_tree o frame tbl cond in
  report_decision o tbl cond outcome;
  outcome

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

and eval_call o frame fexpr args loc =
  match fexpr.A.e with
  | A.Id name -> (
      match Builtins.lookup name with
      | Some bfn ->
        let vals = eval_args_for_builtin o frame name args in
        (Builtins.apply bfn (R.builtin_ctx o.env) vals loc, A.Tauto)
      | None -> (
          match resolve_func o name with
          | Some fn -> (call_function o fn (eval_call_args o frame fn args), fn.A.f_ret)
          | None ->
            raise (R.Runtime_error ("call to undefined function " ^ name, loc))))
  | A.Member { field; _ } -> (
      (* method-style call: resolve by simple name *)
      match resolve_func o field with
      | Some fn -> (call_function o fn (eval_call_args o frame fn args), fn.A.f_ret)
      | None -> raise (R.Runtime_error ("call to undefined method " ^ field, loc)))
  | _ -> raise (R.Runtime_error ("call through non-identifier", loc))

(* assert needs its raw argument for the message; builtins otherwise take
   evaluated values *)
and eval_args_for_builtin o frame _name args =
  List.map (fun a -> eval o frame a) args

and eval_call_args o frame (fn : A.func) args =
  (* reference parameters receive the address of their argument *)
  let params = fn.A.f_params in
  List.mapi
    (fun i a ->
      let by_ref =
        match List.nth_opt params i with
        | Some p -> (
            match p.A.p_type with A.Tref _ -> true | _ -> false)
        | None -> false
      in
      if by_ref then
        let p, _ = lvalue o frame a in
        Value.Vptr p
      else eval o frame a)
    args

and call_function o (fn : A.func) (arg_values : Value.t list) =
  o.env.R.hooks.R.on_call (A.qualified_name fn);
  let caller_fn = o.env.R.cur_fn in
  o.env.R.cur_fn <- A.qualified_name fn;
  Fun.protect ~finally:(fun () -> o.env.R.cur_fn <- caller_fn) @@ fun () ->
  let callee_frame = { vars = [] } in
  List.iteri
    (fun i (p : A.param) ->
      let v = try List.nth arg_values i with _ -> R.default_value p.A.p_type in
      let ty = p.A.p_type in
      match (ty, v) with
      | A.Tref inner, Value.Vptr ptr ->
        (* reference param: alias the caller's storage *)
        callee_frame.vars <- (p.A.p_name, (ptr, inner)) :: callee_frame.vars
      | _ ->
      match (R.strip_const ty, v) with
      | A.Tnamed _, Value.Vptr src ->
        (* struct by value: copy the block *)
        let size = R.size_of o.env ty in
        let dst = Memory.alloc o.env.R.mem size in
        Memory.copy o.env.R.mem ~src ~dst size;
        callee_frame.vars <- (p.A.p_name, (dst, ty)) :: callee_frame.vars
      | _ ->
        let cell = Memory.alloc o.env.R.mem 1 in
        Memory.store o.env.R.mem cell (R.convert_to ty v);
        callee_frame.vars <- (p.A.p_name, (cell, ty)) :: callee_frame.vars)
    fn.A.f_params;
  match fn.A.f_body with
  | None -> Value.Vvoid
  | Some body -> (
      try
        exec_stmt o callee_frame body;
        Value.Vvoid
      with Return_signal v -> v)

(* ------------------------------------------------------------------ *)
(* Kernel launches                                                     *)
(* ------------------------------------------------------------------ *)

and eval_kernel_launch o frame kernel grid block args loc =
  let name =
    match kernel.A.e with
    | A.Id n -> n
    | _ -> raise (R.Runtime_error ("kernel launch of non-identifier", loc))
  in
  let fn =
    match resolve_func o name with
    | Some f -> f
    | None -> raise (R.Runtime_error ("launch of undefined kernel " ^ name, loc))
  in
  let gridv = Int64.to_int (Value.as_int (eval o frame grid)) in
  let blockv = Int64.to_int (Value.as_int (eval o frame block)) in
  if gridv <= 0 || blockv <= 0 then
    raise (R.Runtime_error ("non-positive launch configuration", loc));
  o.env.R.hooks.R.on_kernel_launch (A.qualified_name fn) ~grid:gridv ~block:blockv;
  let arg_values = eval_call_args o frame fn args in
  let saved = o.env.R.cuda_dims in
  (try
     for b = 0 to gridv - 1 do
       for t = 0 to blockv - 1 do
         o.env.R.cuda_dims <-
           [
             ("threadIdx.x", Int64.of_int t);
             ("blockIdx.x", Int64.of_int b);
             ("blockDim.x", Int64.of_int blockv);
             ("gridDim.x", Int64.of_int gridv);
             ("threadIdx.y", 0L); ("blockIdx.y", 0L);
             ("blockDim.y", 1L); ("gridDim.y", 1L);
           ];
         ignore (call_function o fn arg_values)
       done
     done
   with ex ->
     o.env.R.cuda_dims <- saved;
     raise ex);
  o.env.R.cuda_dims <- saved;
  (Value.Vvoid, A.Tvoid)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and declare_local o frame (d : A.var_decl) =
  let ty = d.A.v_type in
  let size = Stdlib.max 1 (R.size_of o.env ty) in
  let p = Memory.alloc o.env.R.mem ~init:(R.default_value ty) size in
  (match d.A.v_init with
   | Some init ->
     let v = eval o frame init in
     (match (R.strip_const ty, v) with
      | A.Tnamed _, Value.Vptr src -> Memory.copy o.env.R.mem ~src ~dst:p (R.size_of o.env ty)
      | _ -> Memory.store o.env.R.mem p (R.convert_to ty v))
   | None -> ());
  frame.vars <- (d.A.v_name, (p, ty)) :: frame.vars

and exec_block o frame stmts =
  (* executes a statement list, handling goto-to-label within this list *)
  let arr = Array.of_list stmts in
  let n = Array.length arr in
  let find_label l =
    let rec go i =
      if i >= n then None
      else
        match arr.(i).A.s with
        | A.Slabel (l', _) when l' = l -> Some i
        | _ -> go (i + 1)
    in
    go 0
  in
  let rec run i =
    if i < n then begin
      (try exec_stmt o frame arr.(i)
       with R.Goto_signal l -> (
           match find_label l with
           | Some j -> run j; raise Exit_block
           | None -> raise (R.Goto_signal l)));
      run (i + 1)
    end
  in
  try run 0 with Exit_block -> ()

and exec_stmt o frame (stmt : A.stmt) =
  R.tick o.env;
  if Instrument.is_executable stmt then begin
    o.env.R.hooks.R.on_stmt stmt.A.sid;
    if o.env.R.cur_fn <> "" then o.env.R.hooks.R.on_function_stmt o.env.R.cur_fn
  end;
  match stmt.A.s with
  | A.Sempty -> ()
  | A.Sexpr e -> ignore (eval o frame e)
  | A.Sdecl ds -> List.iter (declare_local o frame) ds
  | A.Sblock stmts -> exec_block o frame stmts
  | A.Sif { cond; then_; else_ } ->
    if eval_decision o frame cond then exec_stmt o frame then_
    else Option.iter (exec_stmt o frame) else_
  | A.Swhile (cond, body) ->
    let rec loop () =
      if eval_decision o frame cond then begin
        (try exec_stmt o frame body with
         | R.Break_signal -> raise Exit_loop
         | R.Continue_signal -> ());
        loop ()
      end
    in
    (try loop () with Exit_loop -> ())
  | A.Sdo_while (body, cond) ->
    let rec loop () =
      (try exec_stmt o frame body with
       | R.Break_signal -> raise Exit_loop
       | R.Continue_signal -> ());
      if eval_decision o frame cond then loop ()
    in
    (try loop () with Exit_loop -> ())
  | A.Sfor { init; cond; update; body } ->
    (match init with
     | A.Fi_decl ds -> List.iter (declare_local o frame) ds
     | A.Fi_expr e -> ignore (eval o frame e)
     | A.Fi_empty -> ());
    let check () =
      match cond with None -> true | Some c -> eval_decision o frame c
    in
    let rec loop () =
      if check () then begin
        (try exec_stmt o frame body with
         | R.Break_signal -> raise Exit_loop
         | R.Continue_signal -> ());
        Option.iter (fun u -> ignore (eval o frame u)) update;
        loop ()
      end
    in
    (try loop () with Exit_loop -> ())
  | A.Sswitch (scrutinee, body) ->
    let v = Value.as_int (eval o frame scrutinee) in
    let stmts =
      match body.A.s with
      | A.Sblock ss -> ss
      | _ -> [ body ]
    in
    let arr = Array.of_list stmts in
    let n = Array.length arr in
    (* find matching case, else default *)
    let clause_idx = ref (-1) in
    let target = ref None in
    let default = ref None in
    let count = ref 0 in
    Array.iteri
      (fun i s ->
        match s.A.s with
        | A.Scase ce ->
          let cv = Value.as_int (eval o frame ce) in
          if !target = None && Int64.equal cv v then begin
            target := Some i;
            clause_idx := !count
          end;
          incr count
        | A.Sdefault ->
          default := Some (i, !count);
          incr count
        | _ -> ())
      arr;
    let start =
      match (!target, !default) with
      | Some i, _ -> Some i
      | None, Some (i, idx) ->
        clause_idx := idx;
        Some i
      | None, None -> None
    in
    (match start with
     | None -> ()
     | Some i ->
       o.env.R.hooks.R.on_switch stmt.A.sid !clause_idx;
       (try
          for j = i to n - 1 do
            exec_stmt o frame arr.(j)
          done
        with R.Break_signal -> ()))
  | A.Scase _ | A.Sdefault -> ()
  | A.Sbreak -> raise R.Break_signal
  | A.Scontinue -> raise R.Continue_signal
  | A.Sreturn None -> raise (Return_signal Value.Vvoid)
  | A.Sreturn (Some e) -> raise (Return_signal (eval o frame e))
  | A.Sgoto l -> raise (R.Goto_signal l)
  | A.Slabel (_, inner) -> exec_stmt o frame inner
  | A.Stry { body; catches } -> (
      try exec_stmt o frame body
      with R.Cxx_throw v -> (
          match catches with
          | [] -> raise (R.Cxx_throw v)
          | (_, handler) :: _ -> exec_stmt o frame handler))


(* ------------------------------------------------------------------ *)
(* Loading and running                                                 *)
(* ------------------------------------------------------------------ *)

(* The compiled program's load sequence: layouts and global cells from
   the runtime, then the enum and function tables with {!Compile}'s
   insertion sequence (a simple name maps to the last enum item and the
   first function loaded under it), then every unit's global
   initializers in load order, stored through the qualified name. *)
let load o tus =
  R.to_result (fun () ->
      R.declare o.env tus;
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
                    Hashtbl.replace o.enums name v64;
                    next := Int64.add v64 1L)
                  e.A.en_items
              | _ -> ())
            tu.A.tops;
          List.iter
            (fun (fn : A.func) ->
              if fn.A.f_body <> None then begin
                Hashtbl.replace o.funcs (A.qualified_name fn) fn;
                if not (Hashtbl.mem o.funcs fn.A.f_name) then
                  Hashtbl.replace o.funcs fn.A.f_name fn
              end)
            (A.functions_of_tu tu))
        tus;
      let frame = { vars = [] } in
      List.iter
        (fun (tu : A.tu) ->
          List.iter
            (fun (g : A.global_var) ->
              match g.A.g_decl.A.v_init with
              | Some init when not g.A.g_extern ->
                R.store_global o.env (R.global_name g) (eval o frame init)
              | _ -> ())
            (A.globals_of_tu tu))
        tus;
      Value.Vvoid)

let call o ~entry ~args =
  match resolve_func o entry with
  | None -> Error (Printf.sprintf "entry function %s not found" entry)
  | Some fn -> R.to_result (fun () -> call_function o fn args)

let run o tus ~entry ~args = Result.bind (load o tus) (fun _ -> call o ~entry ~args)

let run_entries o tus ~entries =
  match load o tus with
  | Error e -> List.map (fun entry -> (entry, Error e)) entries
  | Ok _ -> List.map (fun entry -> (entry, call o ~entry ~args:[])) entries

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

(* [Scenario.run_one] with the tree evaluator, recording the same
   telemetry (span, [coverage.scenarios], the [interp.*] hook counters,
   the timed region and the statement observation). *)
let run_scenario (sc : Scenario.t) : Scenario.outcome =
  Telemetry.with_span ~cat:"coverage" "coverage.scenario"
    ~attrs:[ ("scenario", sc.Scenario.sc_name);
             ("entries", string_of_int (List.length sc.Scenario.sc_entries)) ]
  @@ fun () ->
  Telemetry.incr "coverage.scenarios";
  let collector = Collector.create ~origin:sc.Scenario.sc_name () in
  let o =
    create ~hooks:(R.telemetry_hooks ~base:(Collector.hooks collector) ()) ()
  in
  let results =
    Telemetry.timed ("coverage.scenario_us." ^ sc.Scenario.sc_name) @@ fun () ->
    match sc.Scenario.sc_entries with
    | [] -> []
    | entries -> run_entries o sc.Scenario.sc_tus ~entries
  in
  Telemetry.observe "coverage.scenario_stmts"
    (float_of_int
       (Hashtbl.fold (fun _ n acc -> acc + n) collector.Collector.stmt_hits 0));
  {
    Scenario.o_name = sc.Scenario.sc_name;
    o_collector = collector;
    o_results = results;
    o_output = R.output o.env;
    o_steps = o.env.R.steps;
  }

let run_scenarios scenarios = List.map run_scenario scenarios
