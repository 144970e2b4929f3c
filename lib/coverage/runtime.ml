(** Runtime of the coverage engine: environment, hooks, step counter,
    cell sizing, value conversion, arithmetic, global lookup, builtins
    and loading.  See runtime.mli. *)

exception Runtime_error of string * Cfront.Loc.t
exception Step_limit_exceeded
exception Break_signal
exception Continue_signal
exception Goto_signal of string
exception Cxx_throw of Value.t

type hooks = {
  on_stmt : int -> unit;
  on_decision : int -> (int * bool option) list -> bool -> unit;
      (** decision eid, (condition eid, outcome-if-evaluated) vector, decision outcome *)
  on_switch : int -> int -> unit;  (** switch sid, clause index taken *)
  on_call : string -> unit;  (** qualified function name *)
  on_kernel_launch : string -> grid:int -> block:int -> unit;
  on_function_stmt : string -> unit;
      (** qualified name of the function executing each statement; the
          telemetry hot-function profile aggregates these *)
}

let null_hooks =
  {
    on_stmt = (fun _ -> ());
    on_decision = (fun _ _ _ -> ());
    on_switch = (fun _ _ -> ());
    on_call = (fun _ -> ());
    on_kernel_launch = (fun _ ~grid:_ ~block:_ -> ());
    on_function_stmt = (fun _ -> ());
  }

(** Wrap [base] so the engine also feeds the global telemetry sink:
    statement/call/kernel-launch counters plus per-function statement
    counts under "interp.fn." (the hot-function profile).  When
    telemetry is disabled at construction time, [base] is returned
    unchanged and the engine pays nothing. *)
let telemetry_hooks ?(base = null_hooks) () =
  if not (Telemetry.enabled ()) then base
  else
    {
      on_stmt =
        (fun sid ->
          Telemetry.incr "interp.stmts";
          base.on_stmt sid);
      on_decision =
        (fun eid conds outcome ->
          Telemetry.incr "interp.decisions";
          base.on_decision eid conds outcome);
      on_switch = base.on_switch;
      on_call =
        (fun name ->
          Telemetry.incr "interp.calls";
          base.on_call name);
      on_kernel_launch =
        (fun name ~grid ~block ->
          Telemetry.incr "interp.kernel_launches";
          Telemetry.add "interp.kernel_threads" (grid * block);
          base.on_kernel_launch name ~grid ~block);
      on_function_stmt =
        (fun fn ->
          Telemetry.incr ("interp.fn." ^ fn);
          base.on_function_stmt fn);
    }

type layout = {
  l_size : int;
  l_fields : (string * (int * Cfront.Ast.ctype)) list;  (** name -> offset, type *)
}

type env = {
  mem : Memory.t;
  globals : (string, Value.ptr * Cfront.Ast.ctype) Hashtbl.t;
  layouts : (string, layout) Hashtbl.t;
  hooks : hooks;
  output : Buffer.t;
  mutable steps : int;
  max_steps : int;
  mutable cuda_dims : (string * int64) list;  (** threadIdx.x etc. during kernel runs *)
  mutable rand_state : int64;
  mutable cur_fn : string;  (** qualified name of the executing function *)
}

let create ?(hooks = null_hooks) ?(max_steps = 50_000_000) () =
  {
    mem = Memory.create ();
    globals = Hashtbl.create 64;
    layouts = Hashtbl.create 16;
    hooks;
    output = Buffer.create 256;
    steps = 0;
    max_steps;
    cuda_dims = [];
    rand_state = 0x2545F4914F6CDD1DL;
    cur_fn = "";
  }

let tick env =
  env.steps <- env.steps + 1;
  if env.steps > env.max_steps then raise Step_limit_exceeded

(* ------------------------------------------------------------------ *)
(* Types and layouts                                                   *)
(* ------------------------------------------------------------------ *)

let rec size_of env (ty : Cfront.Ast.ctype) =
  match ty with
  | Cfront.Ast.Tvoid -> 0
  | Cfront.Ast.Tbool | Cfront.Ast.Tchar | Cfront.Ast.Tint _ | Cfront.Ast.Tfloat
  | Cfront.Ast.Tdouble | Cfront.Ast.Tptr _ | Cfront.Ast.Tref _ | Cfront.Ast.Tauto -> 1
  | Cfront.Ast.Tconst t -> size_of env t
  | Cfront.Ast.Tarray (t, Some n) -> n * size_of env t
  | Cfront.Ast.Tarray (_, None) -> 1
  | Cfront.Ast.Tnamed name ->
    (match Hashtbl.find_opt env.layouts name with
     | Some l -> l.l_size
     | None -> 1)
  | Cfront.Ast.Ttemplate _ -> 1

let rec strip_const = function
  | Cfront.Ast.Tconst t | Cfront.Ast.Tref t -> strip_const t
  | t -> t

let pointee env ty =
  match strip_const ty with
  | Cfront.Ast.Tptr t -> t
  | Cfront.Ast.Tarray (t, _) -> t
  | _ ->
    ignore env;
    Cfront.Ast.int_t

let layout_of_record env (r : Cfront.Ast.record) =
  let fields = ref [] in
  let off = ref 0 in
  List.iter
    (fun ((_ : Cfront.Ast.access), (d : Cfront.Ast.var_decl)) ->
      fields := (d.Cfront.Ast.v_name, (!off, d.Cfront.Ast.v_type)) :: !fields;
      off := !off + size_of env d.Cfront.Ast.v_type)
    r.Cfront.Ast.r_fields;
  { l_size = Stdlib.max 1 !off; l_fields = List.rev !fields }

let default_value ty =
  match strip_const ty with
  | Cfront.Ast.Tfloat | Cfront.Ast.Tdouble -> Value.Vfloat 0.0
  | Cfront.Ast.Tbool -> Value.Vbool false
  | Cfront.Ast.Tptr _ -> Value.Vnull
  | _ -> Value.Vint 0L

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let arith_binop env op (a : Value.t) (b : Value.t) loc =
  let open Cfront.Ast in
  let fail msg = raise (Runtime_error (msg, loc)) in
  let int_op f =
    Value.Vint (f (Value.as_int a) (Value.as_int b))
  in
  let num_op fi ff =
    if Value.is_float a || Value.is_float b then
      Value.Vfloat (ff (Value.as_float a) (Value.as_float b))
    else Value.Vint (fi (Value.as_int a) (Value.as_int b))
  in
  let cmp_op fi ff =
    if Value.is_float a || Value.is_float b then
      Value.Vbool (ff (Value.as_float a) (Value.as_float b))
    else Value.Vbool (fi (Value.as_int a) (Value.as_int b))
  in
  match (op, a, b) with
  (* raw pointer +/- int moves whole cells (stride 1); the engine applies
     the pointee stride before it gets here *)
  | Add, Value.Vptr p, _ -> Value.Vptr (Memory.shift p (Int64.to_int (Value.as_int b)))
  | Add, _, Value.Vptr p -> Value.Vptr (Memory.shift p (Int64.to_int (Value.as_int a)))
  | Sub, Value.Vptr p, Value.Vptr q ->
    if p.Value.block <> q.Value.block then fail "subtraction of unrelated pointers"
    else Value.Vint (Int64.of_int (p.Value.offset - q.Value.offset))
  | Sub, Value.Vptr p, _ -> Value.Vptr (Memory.shift p (-Int64.to_int (Value.as_int b)))
  | Eq, Value.Vptr p, Value.Vptr q -> Value.Vbool (p = q)
  | Eq, Value.Vptr _, Value.Vnull | Eq, Value.Vnull, Value.Vptr _ -> Value.Vbool false
  | Eq, Value.Vnull, Value.Vnull -> Value.Vbool true
  | Ne, Value.Vptr p, Value.Vptr q -> Value.Vbool (p <> q)
  | Ne, Value.Vptr _, Value.Vnull | Ne, Value.Vnull, Value.Vptr _ -> Value.Vbool true
  | Ne, Value.Vnull, Value.Vnull -> Value.Vbool false
  | Add, _, _ -> num_op Int64.add ( +. )
  | Sub, _, _ -> num_op Int64.sub ( -. )
  | Mul, _, _ -> num_op Int64.mul ( *. )
  | Div, _, _ ->
    if Value.is_float a || Value.is_float b then
      Value.Vfloat (Value.as_float a /. Value.as_float b)
    else if Value.as_int b = 0L then fail "integer division by zero"
    else Value.Vint (Int64.div (Value.as_int a) (Value.as_int b))
  | Mod, _, _ ->
    if Value.as_int b = 0L then fail "modulo by zero"
    else Value.Vint (Int64.rem (Value.as_int a) (Value.as_int b))
  | Shl, _, _ -> int_op (fun x y -> Int64.shift_left x (Int64.to_int y))
  | Shr, _, _ -> int_op (fun x y -> Int64.shift_right x (Int64.to_int y))
  | Band, _, _ -> int_op Int64.logand
  | Bor, _, _ -> int_op Int64.logor
  | Bxor, _, _ -> int_op Int64.logxor
  | Lt, _, _ -> cmp_op (fun x y -> Int64.compare x y < 0) ( < )
  | Gt, _, _ -> cmp_op (fun x y -> Int64.compare x y > 0) ( > )
  | Le, _, _ -> cmp_op (fun x y -> Int64.compare x y <= 0) ( <= )
  | Ge, _, _ -> cmp_op (fun x y -> Int64.compare x y >= 0) ( >= )
  | Eq, _, _ -> cmp_op (fun x y -> Int64.equal x y) (fun x y -> x = y)
  | Ne, _, _ -> cmp_op (fun x y -> not (Int64.equal x y)) (fun x y -> x <> y)
  | (Land | Lor | Comma), _, _ ->
    ignore env;
    fail "logical/comma operators handled elsewhere"

let convert_to ty (v : Value.t) =
  match strip_const ty with
  | Cfront.Ast.Tfloat | Cfront.Ast.Tdouble -> Value.Vfloat (Value.as_float v)
  | Cfront.Ast.Tint _ | Cfront.Ast.Tchar -> (
      match v with
      | Value.Vptr _ -> v  (* keep pointers intact through int casts *)
      | _ -> Value.Vint (Value.as_int v))
  | Cfront.Ast.Tbool -> Value.Vbool (Value.truthy v)
  | _ -> v

(* ------------------------------------------------------------------ *)
(* Globals and builtins                                                *)
(* ------------------------------------------------------------------ *)

let cuda_builtin_names = [ "threadIdx"; "blockIdx"; "blockDim"; "gridDim" ]

let find_global env name =
  match Hashtbl.find_opt env.globals name with
  | Some entry -> Some entry
  | None ->
    (* try simple-name match for namespace-qualified globals *)
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if Util.Strutil.ends_with ~suffix:("::" ^ name) key then Some entry
          else None)
      env.globals None

let builtin_ctx env : Builtins.ctx =
  {
    Builtins.mem = env.mem;
    output = env.output;
    rand_state = (fun () -> env.rand_state);
    set_rand_state = (fun s -> env.rand_state <- s);
  }

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let global_name (g : Cfront.Ast.global_var) =
  String.concat "::" (g.Cfront.Ast.g_scope @ [ g.Cfront.Ast.g_decl.Cfront.Ast.v_name ])

let declare env tus =
  List.iter
    (fun (tu : Cfront.Ast.tu) ->
      List.iter
        (fun r -> Hashtbl.replace env.layouts r.Cfront.Ast.r_name (layout_of_record env r))
        (Cfront.Ast.records_of_tu tu);
      List.iter
        (fun (g : Cfront.Ast.global_var) ->
          if not g.Cfront.Ast.g_extern then begin
            let d = g.Cfront.Ast.g_decl in
            let ty = d.Cfront.Ast.v_type in
            let p =
              Memory.alloc env.mem ~init:(default_value ty) (Stdlib.max 1 (size_of env ty))
            in
            let qname = global_name g in
            Hashtbl.replace env.globals qname (p, ty);
            if qname <> d.Cfront.Ast.v_name then
              Hashtbl.replace env.globals d.Cfront.Ast.v_name (p, ty)
          end)
        (Cfront.Ast.globals_of_tu tu))
    tus

let store_global env qname v =
  let p, ty = Hashtbl.find env.globals qname in
  Memory.store env.mem p (convert_to ty v)

let to_result f =
  try Ok (f ()) with
  | Runtime_error (msg, loc) -> Error (Printf.sprintf "%s: %s" (Cfront.Loc.to_string loc) msg)
  | Memory.Fault msg -> Error ("memory fault: " ^ msg)
  | Builtins.Builtin_error msg -> Error ("builtin error: " ^ msg)
  | Step_limit_exceeded -> Error "step limit exceeded"
  | Cxx_throw v -> Error ("uncaught C++ exception: " ^ Value.to_string v)
  | Goto_signal label -> Error ("goto " ^ label ^ ": no such label in the function")
  | Break_signal -> Error "break outside a loop or switch"
  | Continue_signal -> Error "continue outside a loop"

let output env = Buffer.contents env.output
