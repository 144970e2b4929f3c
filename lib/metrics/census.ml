(** Per-function census: one walk of each defined function yields every
    per-function count the core metrics read and the three record lists
    the MISRA rule context holds.

    The counts: McCabe complexity (as {!Complexity} defines it), exit
    points (ISO 26262-6 Table 8 item 1: a function has more than one
    exit when it has several [return]s, a [throw], or one [return] that
    is not its last statement), [goto]s, executable statements, pointer
    use, null-checked pointer parameters, assertions, CUDA calls,
    launches and kernel guards, and calls to the interrupt and thread
    markers of {!Architecture}.  The records: explicit casts and
    implicit conversions ({!Casts}), expression-statement calls whose
    non-void result is discarded, and dynamic allocations
    ({!Pointers}).  The cast inference reads one environment pass per
    function ({!Casts.env_of_func}); nothing else walks the body twice.
    The records hold no AST node. *)

open Cfront

type counts = {
  cc : int;  (** McCabe cyclomatic complexity *)
  returns : int;
  gotos : int;
  throws : int;
  multi_exit : bool;
  logical : int;  (** executable statements (not blocks, labels, [case]s) *)
  ptr_params : int;  (** pointer-typed parameters *)
  ptr_locals : int;  (** pointer-typed local declarations *)
  derefs : int;  (** unary [*], [->] and indexing *)
  address_of : int;
  checked_params : int;
      (** pointer parameters compared against null (or tested bare in an
          [if]) somewhere in the body *)
  assertions : int;  (** [assert]/[CHECK]-style calls *)
  cuda_mallocs : int;
  cuda_memcpys : int;
  cuda_frees : int;
  launches : int;  (** kernel launches *)
  bound_check : bool;  (** some [if] condition holds a [<], [<=], [>=] or [>] *)
  interrupts : bool;  (** calls one of {!Architecture.interrupt_markers} *)
  threads : bool;  (** calls one of {!Architecture.thread_markers} *)
}

type t = {
  counts : counts list;  (** one per function, in order *)
  casts : Casts.record list;
      (** per function, its explicit casts, then its implicit conversions
          in assignments, then those in declarations, each in source
          order *)
  ignored_returns : (string * string * Loc.t) list;  (** caller, callee, call *)
  dyn_allocs : Pointers.dyn_alloc list;
}

(** Is the last statement of the body a return?  A function with a
    single return still exits "at the end" only then. *)
let rec ends_with_return stmt =
  match stmt.Ast.s with
  | Ast.Sreturn _ -> true
  | Ast.Sblock ss -> (match List.rev ss with [] -> false | last :: _ -> ends_with_return last)
  | Ast.Slabel (_, inner) -> ends_with_return inner
  | _ -> false

let is_null (e : Ast.expr) =
  match e.Ast.e with Ast.Nullptr | Ast.Int_const 0L | Ast.Id "NULL" -> true | _ -> false

(* One function.  [returns_value] maps a simple function name to
   whether its (last) definition returns a value.  The records are
   pushed onto [casts], [ignored] and [allocs], newest first. *)
let walk ~returns_value ~casts ~ignored ~allocs (fn : Ast.func) body =
  let name = Ast.qualified_name fn in
  let env = Casts.env_of_func fn in
  let ptr_params =
    List.filter_map
      (fun (p : Ast.param) -> if Ast.is_pointer_type p.Ast.p_type then Some p.Ast.p_name else None)
      fn.Ast.f_params
  in
  let checked = ref [] in
  let check n = if List.mem n ptr_params && not (List.mem n !checked) then checked := n :: !checked in
  (* statement decisions, and [&&]/[||]/[?:] nodes; a case label's nodes
     are taken back out *)
  let decisions = ref 0 and relational = ref 0 in
  let returns = ref 0 and gotos = ref 0 and throws = ref 0 and logical = ref 0 in
  let ptr_locals = ref 0 and derefs = ref 0 and address_of = ref 0 in
  let assertions = ref 0 and mallocs = ref 0 and memcpys = ref 0 and frees = ref 0 in
  let launches = ref 0 and bound_check = ref false in
  let interrupts = ref false and threads = ref false in
  (* implicit conversions, kept apart so each function lists its
     explicit casts first *)
  let in_assigns = ref [] and in_decls = ref [] in
  let record kind loc = { Casts.kind; loc; in_function = name } in
  let node (e : Ast.expr) =
    (match Pointers.alloc_site e with
     | Some site -> allocs := { Pointers.site; loc = e.Ast.eloc; in_function = name } :: !allocs
     | None -> ());
    match e.Ast.e with
    | Ast.Binary ((Ast.Land | Ast.Lor), _, _) | Ast.Ternary _ -> incr decisions
    | Ast.Binary ((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge), _, _) -> incr relational
    | Ast.Binary ((Ast.Eq | Ast.Ne), { e = Ast.Id n; _ }, other) when is_null other -> check n
    | Ast.Binary ((Ast.Eq | Ast.Ne), other, { e = Ast.Id n; _ }) when is_null other -> check n
    | Ast.Unary (Ast.Lnot, { e = Ast.Id n; _ }) -> check n
    | Ast.Unary (Ast.Deref, _) | Ast.Member { arrow = true; _ } | Ast.Index _ -> incr derefs
    | Ast.Unary (Ast.Addr_of, _) -> incr address_of
    | Ast.Throw _ -> incr throws
    | Ast.Kernel_launch _ -> incr launches
    | Ast.C_cast _ | Ast.Cpp_cast _ ->
      Option.iter (fun k -> casts := record k e.Ast.eloc :: !casts) (Casts.explicit_kind e)
    | Ast.Assign (Ast.A_eq, lhs, rhs) ->
      Option.iter
        (fun k -> in_assigns := record k e.Ast.eloc :: !in_assigns)
        (Casts.implicit_kind env (Casts.infer env lhs) rhs)
    | Ast.Call ({ e = Ast.Id callee; _ }, _) ->
      (match callee with
       | "assert" | "CHECK" | "DCHECK" | "CHECK_NOTNULL" -> incr assertions
       | "cudaMalloc" -> incr mallocs
       | "cudaMemcpy" -> incr memcpys
       | "cudaFree" -> incr frees
       | _ -> ());
      if List.mem callee Architecture.interrupt_markers then interrupts := true;
      if List.mem callee Architecture.thread_markers then threads := true
    | _ -> ()
  in
  let expr e = Ast.iter_exprs_of_expr node e in
  let decls ~implicit ds =
    List.iter
      (fun (d : Ast.var_decl) ->
        if Ast.is_pointer_type d.Ast.v_type then incr ptr_locals;
        Option.iter
          (fun init ->
            expr init;
            if implicit then
              Option.iter
                (fun k -> in_decls := record k d.Ast.v_loc :: !in_decls)
                (Casts.implicit_kind env (Casts.scalar_of_type d.Ast.v_type) init))
          d.Ast.v_init)
      ds
  in
  Ast.iter_stmts
    (fun s ->
      (match s.Ast.s with
       | Ast.Sblock _ | Ast.Slabel _ | Ast.Sempty | Ast.Scase _ | Ast.Sdefault -> ()
       | _ -> incr logical);
      match s.Ast.s with
      | Ast.Sif { cond; _ } ->
        incr decisions;
        (match cond.Ast.e with Ast.Id n -> check n | _ -> ());
        let before = !relational in
        expr cond;
        if !relational > before then bound_check := true
      | Ast.Swhile (c, _) | Ast.Sdo_while (_, c) ->
        incr decisions;
        expr c
      | Ast.Sfor { init; cond; update; _ } ->
        (match init with
         | Ast.Fi_decl ds -> decls ~implicit:false ds
         | Ast.Fi_expr e -> expr e
         | Ast.Fi_empty -> ());
        Option.iter (fun c -> incr decisions; expr c) cond;
        Option.iter expr update
      | Ast.Scase e ->
        let before = !decisions in
        expr e;
        decisions := before + 1
      | Ast.Sexpr e ->
        (match e.Ast.e with
         | Ast.Call ({ e = Ast.Id callee; _ }, _)
           when Hashtbl.find_opt returns_value callee = Some true ->
           ignored := (name, callee, e.Ast.eloc) :: !ignored
         | _ -> ());
        expr e
      | Ast.Sdecl ds -> decls ~implicit:true ds
      | Ast.Sswitch (e, _) -> expr e
      | Ast.Sreturn e ->
        incr returns;
        Option.iter expr e
      | Ast.Sgoto _ -> incr gotos
      | Ast.Sempty | Ast.Sblock _ | Ast.Sdefault | Ast.Sbreak | Ast.Scontinue
      | Ast.Slabel _ | Ast.Stry _ -> ())
    body;
  casts := !in_decls @ !in_assigns @ !casts;
  {
    cc = 1 + !decisions;
    returns = !returns;
    gotos = !gotos;
    throws = !throws;
    multi_exit =
      !returns > 1 || !throws > 0 || (!returns = 1 && not (ends_with_return body));
    logical = !logical;
    ptr_params = List.length ptr_params;
    ptr_locals = !ptr_locals;
    derefs = !derefs;
    address_of = !address_of;
    checked_params = List.length (List.filter (fun p -> List.mem p !checked) ptr_params);
    assertions = !assertions;
    cuda_mallocs = !mallocs;
    cuda_memcpys = !memcpys;
    cuda_frees = !frees;
    launches = !launches;
    bound_check = !bound_check;
    interrupts = !interrupts;
    threads = !threads;
  }

(** The census of [fns], defined functions (a prototype is skipped).  A
    discarded result is one of a function of [fns] itself: its simple
    name's last definition there returns a value. *)
let of_functions (fns : Ast.func list) =
  let returns_value = Hashtbl.create 64 in
  List.iter
    (fun (f : Ast.func) ->
      Hashtbl.replace returns_value f.Ast.f_name
        (match f.Ast.f_ret with Ast.Tvoid -> false | _ -> true))
    fns;
  let casts = ref [] and ignored = ref [] and allocs = ref [] in
  let counts =
    List.filter_map
      (fun (fn : Ast.func) ->
        Option.map (walk ~returns_value ~casts ~ignored ~allocs fn) fn.Ast.f_body)
      fns
  in
  {
    counts;
    casts = List.rev !casts;
    ignored_returns = List.rev !ignored;
    dyn_allocs = List.rev !allocs;
  }

(* ------------------------------------------------------------------ *)
(* Sums                                                                 *)
(* ------------------------------------------------------------------ *)

let sum f counts = List.fold_left (fun acc c -> acc + f c) 0 counts

(** Fraction of the functions with more than one exit point — the paper
    reports 41% for the object-detection module. *)
let multi_exit_fraction counts =
  match counts with
  | [] -> 0.0
  | _ ->
    float_of_int (List.length (List.filter (fun c -> c.multi_exit) counts))
    /. float_of_int (List.length counts)

let pointer_usage counts =
  List.fold_left
    (fun (acc : Pointers.usage) c ->
      Pointers.add acc
        { Pointers.ptr_params = c.ptr_params; ptr_locals = c.ptr_locals;
          derefs = c.derefs; address_of = c.address_of })
    Pointers.zero counts

(** Fraction of pointer parameters that are validated, over all
    functions ([1.0] when there is none). *)
let param_validation_ratio counts =
  let total = sum (fun c -> c.ptr_params) counts in
  if total = 0 then 1.0
  else float_of_int (sum (fun c -> c.checked_params) counts) /. float_of_int total
