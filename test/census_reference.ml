(* The per-function walks the census replaced, as they stood while
   each metric walked every body itself, and interproc's direct facts
   as they stood while read off each function's CFG.  They are the
   oracle the census ([Metrics.Census]), the per-unit text scan
   ([Metrics.Style.scan]) and [Interproc.Summary.direct_facts] must
   reproduce, count for count and record for record. *)

open Cfront

(* ---- Metrics.Complexity ---- *)
module Complexity = struct
let decisions_in_expr expr =
  let n = ref 0 in
  Cfront.Ast.iter_exprs_of_expr
    (fun e ->
      match e.Cfront.Ast.e with
      | Cfront.Ast.Binary ((Cfront.Ast.Land | Cfront.Ast.Lor), _, _) -> incr n
      | Cfront.Ast.Ternary _ -> incr n
      | _ -> ())
    expr;
  !n

(* Counts [&&]/[||]/[?:] in every condition and expression statement,
   the way Lizard and most modern tools do. *)
let of_stmt body =
  let n = ref 0 in
  let count_expr e = n := !n + decisions_in_expr e in
  Cfront.Ast.iter_stmts
    (fun s ->
      match s.Cfront.Ast.s with
      | Cfront.Ast.Sif { cond; _ } -> incr n; count_expr cond
      | Cfront.Ast.Swhile (c, _) | Cfront.Ast.Sdo_while (_, c) ->
        incr n;
        count_expr c
      | Cfront.Ast.Sfor { cond; init; update; _ } ->
        (match cond with
         | Some c -> incr n; count_expr c
         | None -> ());
        (match init with
         | Cfront.Ast.Fi_expr e -> count_expr e
         | Cfront.Ast.Fi_decl ds ->
           List.iter (fun d -> Option.iter count_expr d.Cfront.Ast.v_init) ds
         | Cfront.Ast.Fi_empty -> ());
        Option.iter count_expr update
      | Cfront.Ast.Scase _ -> incr n
      | Cfront.Ast.Sexpr e -> count_expr e
      | Cfront.Ast.Sreturn (Some e) -> count_expr e
      | Cfront.Ast.Sdecl ds ->
        List.iter (fun d -> Option.iter count_expr d.Cfront.Ast.v_init) ds
      | Cfront.Ast.Sswitch (e, _) -> count_expr e
      | _ -> ())
    body;
  !n + 1

let of_func (fn : Cfront.Ast.func) =
  match fn.Cfront.Ast.f_body with
  | None -> 1
  | Some body -> of_stmt body

let summarize ~modname ~loc fns =
  let values = List.map of_func (List.filter (fun f -> f.Ast.f_body <> None) fns) in
  {
    Metrics.Complexity.modname;
    n_functions = List.length values;
    loc;
    cc_mean = Util.Stats.mean (List.map float_of_int values);
    cc_max = List.fold_left Stdlib.max 0 values;
    over_10 = List.length (List.filter (fun c -> c > 10) values);
    over_20 = List.length (List.filter (fun c -> c > 20) values);
    over_50 = List.length (List.filter (fun c -> c > 50) values);
  }
end

(* ---- Metrics.Func_shape ---- *)
module Func_shape = struct
type t = {
  fn : Cfront.Ast.func;
  returns : int;
  gotos : int;
  throws : int;
  multi_exit : bool;
  params : int;
  body_stmts : int;
}

let count_stmt_kinds body =
  let returns = ref 0 and gotos = ref 0 and stmts = ref 0 in
  Cfront.Ast.iter_stmts
    (fun s ->
      incr stmts;
      match s.Cfront.Ast.s with
      | Cfront.Ast.Sreturn _ -> incr returns
      | Cfront.Ast.Sgoto _ -> incr gotos
      | _ -> ())
    body;
  (!returns, !gotos, !stmts)

let count_throws fn =
  let n = ref 0 in
  Cfront.Ast.iter_exprs_of_func
    (fun e -> match e.Cfront.Ast.e with Cfront.Ast.Throw _ -> incr n | _ -> ())
    fn;
  !n

(** Is the last statement of the body a return?  Used to decide whether a
    single-return function still exits "at the end". *)
let rec ends_with_return stmt =
  match stmt.Cfront.Ast.s with
  | Cfront.Ast.Sreturn _ -> true
  | Cfront.Ast.Sblock ss ->
    (match List.rev ss with [] -> false | last :: _ -> ends_with_return last)
  | Cfront.Ast.Slabel (_, inner) -> ends_with_return inner
  | _ -> false

let of_func (fn : Cfront.Ast.func) =
  match fn.Cfront.Ast.f_body with
  | None -> None
  | Some body ->
    let returns, gotos, body_stmts = count_stmt_kinds body in
    let throws = count_throws fn in
    let multi_exit =
      returns > 1 || throws > 0
      || (returns = 1 && not (ends_with_return body))
    in
    Some
      {
        fn;
        returns;
        gotos;
        throws;
        multi_exit;
        params = List.length fn.Cfront.Ast.f_params;
        body_stmts;
      }

let of_functions fns = List.filter_map of_func fns

(** Fraction of defined functions with more than one exit point — the
    paper reports 41% for the object-detection module. *)
let multi_exit_fraction fns =
  let shapes = of_functions fns in
  match shapes with
  | [] -> 0.0
  | _ ->
    float_of_int (List.length (List.filter (fun s -> s.multi_exit) shapes))
    /. float_of_int (List.length shapes)

let total_gotos fns =
  Util.Stats.sum_int (List.map (fun s -> s.gotos) (of_functions fns))
end

(* ---- Metrics.Casts ---- *)
module Casts = struct
  open Metrics.Casts

let explicit_casts_of_func (fn : Cfront.Ast.func) =
  let acc = ref [] in
  let name = Cfront.Ast.qualified_name fn in
  Cfront.Ast.iter_exprs_of_func
    (fun e ->
      match e.Cfront.Ast.e with
      | Cfront.Ast.C_cast _ ->
        acc := { kind = C_style; loc = e.Cfront.Ast.eloc; in_function = name } :: !acc
      | Cfront.Ast.Cpp_cast (k, _, _) ->
        let kind =
          match k with
          | Cfront.Ast.Static_cast -> Static
          | Cfront.Ast.Dynamic_cast -> Dynamic
          | Cfront.Ast.Const_cast -> Const
          | Cfront.Ast.Reinterpret_cast -> Reinterpret
        in
        acc := { kind; loc = e.Cfront.Ast.eloc; in_function = name } :: !acc
      | _ -> ())
    fn;
  List.rev !acc

let implicit_conversions_of_func (fn : Cfront.Ast.func) =
  let env = env_of_func fn in
  let acc = ref [] in
  let name = Cfront.Ast.qualified_name fn in
  let check_pair ~loc lhs_kind rhs =
    match (lhs_kind, infer env rhs) with
    | Kint, Kfloat ->
      acc := { kind = Implicit_narrowing; loc; in_function = name } :: !acc
    | Kfloat, Kint ->
      acc := { kind = Implicit_widening; loc; in_function = name } :: !acc
    | _ -> ()
  in
  Cfront.Ast.iter_exprs_of_func
    (fun e ->
      match e.Cfront.Ast.e with
      | Cfront.Ast.Assign (Cfront.Ast.A_eq, lhs, rhs) ->
        check_pair ~loc:e.Cfront.Ast.eloc (infer env lhs) rhs
      | _ -> ())
    fn;
  (match fn.Cfront.Ast.f_body with
   | None -> ()
   | Some body ->
     Cfront.Ast.iter_stmts
       (fun s ->
         match s.Cfront.Ast.s with
         | Cfront.Ast.Sdecl ds ->
           List.iter
             (fun d ->
               match d.Cfront.Ast.v_init with
               | Some init ->
                 check_pair ~loc:d.Cfront.Ast.v_loc
                   (scalar_of_type d.Cfront.Ast.v_type) init
               | None -> ())
             ds
         | _ -> ())
       body);
  List.rev !acc

let of_functions fns =
  List.concat_map
    (fun fn -> explicit_casts_of_func fn @ implicit_conversions_of_func fn)
    (List.filter (fun (f : Cfront.Ast.func) -> f.Cfront.Ast.f_body <> None) fns)

end

(* ---- Metrics.Defensive ---- *)
module Defensive = struct
type param_check = {
  fn : string;
  pointer_params : string list;
  checked_params : string list;  (** subset compared against null before use *)
}

(** Names compared against null anywhere in the function body. *)
let null_checked_names (fn : Cfront.Ast.func) =
  let acc = ref [] in
  let is_null e =
    match e.Cfront.Ast.e with
    | Cfront.Ast.Nullptr -> true
    | Cfront.Ast.Int_const 0L -> true
    | Cfront.Ast.Id "NULL" -> true
    | _ -> false
  in
  Cfront.Ast.iter_exprs_of_func
    (fun e ->
      match e.Cfront.Ast.e with
      | Cfront.Ast.Binary ((Cfront.Ast.Eq | Cfront.Ast.Ne), { e = Cfront.Ast.Id n; _ }, other)
        when is_null other ->
        acc := n :: !acc
      | Cfront.Ast.Binary ((Cfront.Ast.Eq | Cfront.Ast.Ne), other, { e = Cfront.Ast.Id n; _ })
        when is_null other ->
        acc := n :: !acc
      | Cfront.Ast.Unary (Cfront.Ast.Lnot, { e = Cfront.Ast.Id n; _ }) -> acc := n :: !acc
      | _ -> ())
    fn;
  (* a bare [if (p)] also counts *)
  (match fn.Cfront.Ast.f_body with
   | None -> ()
   | Some body ->
     Cfront.Ast.iter_stmts
       (fun s ->
         match s.Cfront.Ast.s with
         | Cfront.Ast.Sif { cond = { e = Cfront.Ast.Id n; _ }; _ } -> acc := n :: !acc
         | _ -> ())
       body);
  List.sort_uniq compare !acc

let param_check_of_func (fn : Cfront.Ast.func) =
  match fn.Cfront.Ast.f_body with
  | None -> None
  | Some _ ->
    let pointer_params =
      List.filter_map
        (fun p ->
          if Cfront.Ast.is_pointer_type p.Cfront.Ast.p_type then Some p.Cfront.Ast.p_name
          else None)
        fn.Cfront.Ast.f_params
    in
    if pointer_params = [] then None
    else
      let checked = null_checked_names fn in
      Some
        {
          fn = Cfront.Ast.qualified_name fn;
          pointer_params;
          checked_params = List.filter (fun p -> List.mem p checked) pointer_params;
        }

(** Fraction of pointer parameters that are validated, over all functions
    with pointer parameters. *)
let param_validation_ratio fns =
  let checks = List.filter_map param_check_of_func fns in
  let total = Util.Stats.sum_int (List.map (fun c -> List.length c.pointer_params) checks) in
  let checked = Util.Stats.sum_int (List.map (fun c -> List.length c.checked_params) checks) in
  if total = 0 then 1.0 else float_of_int checked /. float_of_int total

(** Call sites whose non-void result is discarded.  Without full type
    resolution we flag expression-statement calls to functions *known*
    (from the provided definitions) to return non-void. *)
let ignored_returns ~(funcs : Cfront.Ast.func list) fns =
  let returns_value = Hashtbl.create 64 in
  List.iter
    (fun (f : Cfront.Ast.func) ->
      let non_void = match f.Cfront.Ast.f_ret with Cfront.Ast.Tvoid -> false | _ -> true in
      Hashtbl.replace returns_value f.Cfront.Ast.f_name non_void)
    funcs;
  let acc = ref [] in
  List.iter
    (fun (fn : Cfront.Ast.func) ->
      match fn.Cfront.Ast.f_body with
      | None -> ()
      | Some body ->
        Cfront.Ast.iter_stmts
          (fun s ->
            match s.Cfront.Ast.s with
            | Cfront.Ast.Sexpr { e = Cfront.Ast.Call ({ e = Cfront.Ast.Id callee; _ }, _); eloc; _ }
              when Hashtbl.find_opt returns_value callee = Some true ->
              acc := (Cfront.Ast.qualified_name fn, callee, eloc) :: !acc
            | _ -> ())
          body)
    fns;
  List.rev !acc

(** Assertion density: assert()/CHECK()-style calls per function. *)
let assertion_count fns =
  let n = ref 0 in
  List.iter
    (fun fn ->
      Cfront.Ast.iter_exprs_of_func
        (fun e ->
          match e.Cfront.Ast.e with
          | Cfront.Ast.Call ({ e = Cfront.Ast.Id ("assert" | "CHECK" | "DCHECK" | "CHECK_NOTNULL"); _ }, _) ->
            incr n
          | _ -> ())
        fn)
    fns;
  !n
end

(* ---- Metrics.Pointers ---- *)
module Pointers = struct
  open Metrics.Pointers

let usage_of_func (fn : Cfront.Ast.func) =
  let ptr_params =
    List.length
      (List.filter (fun p -> Cfront.Ast.is_pointer_type p.Cfront.Ast.p_type) fn.Cfront.Ast.f_params)
  in
  let ptr_locals = ref 0 in
  (match fn.Cfront.Ast.f_body with
   | None -> ()
   | Some body ->
     Cfront.Ast.iter_stmts
       (fun s ->
         match s.Cfront.Ast.s with
         | Cfront.Ast.Sdecl ds | Cfront.Ast.Sfor { init = Cfront.Ast.Fi_decl ds; _ } ->
           List.iter
             (fun d ->
               if Cfront.Ast.is_pointer_type d.Cfront.Ast.v_type then incr ptr_locals)
             ds
         | _ -> ())
       body);
  let derefs = ref 0 and address_of = ref 0 in
  Cfront.Ast.iter_exprs_of_func
    (fun e ->
      match e.Cfront.Ast.e with
      | Cfront.Ast.Unary (Cfront.Ast.Deref, _) -> incr derefs
      | Cfront.Ast.Member { arrow = true; _ } -> incr derefs
      | Cfront.Ast.Index _ -> incr derefs
      | Cfront.Ast.Unary (Cfront.Ast.Addr_of, _) -> incr address_of
      | _ -> ())
    fn;
  {
    ptr_params;
    ptr_locals = !ptr_locals;
    derefs = !derefs;
    address_of = !address_of;
  }

let usage_of_functions fns =
  List.fold_left (fun acc fn -> add acc (usage_of_func fn)) zero fns

let dyn_allocs_of_func (fn : Cfront.Ast.func) =
  let acc = ref [] in
  let fname = Cfront.Ast.qualified_name fn in
  Cfront.Ast.iter_exprs_of_func
    (fun e ->
      match e.Cfront.Ast.e with
      | Cfront.Ast.Call ({ e = Cfront.Ast.Id name; _ }, _)
        when List.mem name allocator_names ->
        acc := { site = name; loc = e.Cfront.Ast.eloc; in_function = fname } :: !acc
      | Cfront.Ast.New { array_size = Some _; _ } ->
        acc := { site = "new[]"; loc = e.Cfront.Ast.eloc; in_function = fname } :: !acc
      | Cfront.Ast.New _ ->
        acc := { site = "new"; loc = e.Cfront.Ast.eloc; in_function = fname } :: !acc
      | _ -> ())
    fn;
  List.rev !acc

let dyn_allocs_of_functions fns = List.concat_map dyn_allocs_of_func fns

end

(* ---- Metrics.Loc_metrics ---- *)
module Loc_metrics = struct
  open Metrics.Loc_metrics

let of_tu (tu : Cfront.Ast.tu) =
  let lines = Util.Strutil.lines tu.raw_source in
  let total = List.length lines in
  let blank =
    List.length (List.filter (fun l -> Util.Strutil.strip l = "") lines)
  in
  let logical = ref 0 in
  let executable (s : Cfront.Ast.stmt) =
    match s.Cfront.Ast.s with
    | Cfront.Ast.Sblock _ | Cfront.Ast.Slabel _ | Cfront.Ast.Sempty
    | Cfront.Ast.Scase _ | Cfront.Ast.Sdefault -> false
    | _ -> true
  in
  List.iter
    (fun fn ->
      match fn.Cfront.Ast.f_body with
      | None -> ()
      | Some body ->
        Cfront.Ast.iter_stmts (fun s -> if executable s then incr logical) body)
    (Cfront.Ast.functions_of_tu tu);
  {
    physical = total - blank;
    blank;
    comment = tu.comment_lines;
    logical = !logical;
    total;
  }

let of_files (pfs : Cfront.Project.parsed_file list) =
  List.fold_left (fun acc pf -> add acc (of_tu (Cfront.Project.tu pf))) zero pfs

end

(* ---- Metrics.Style ---- *)
module Style = struct
  open Metrics.Style

  type finding = { rule : rule; line : int; file : string }

let check_line ~file lineno line =
  let findings = ref [] in
  let push rule = findings := { rule; line = lineno; file } :: !findings in
  if String.length line > max_line_len then push Line_too_long;
  if String.contains line '\t' then push Tab_character;
  let n = String.length line in
  if n > 0 && (line.[n - 1] = ' ' || line.[n - 1] = '\t') then push Trailing_whitespace;
  let indent = Util.Strutil.indent_width line in
  if indent mod 2 <> 0 && Util.Strutil.strip line <> "" then push Odd_indentation;
  (* "){"  or  ";{" without a space *)
  let rec scan i =
    if i + 1 < n then begin
      if line.[i + 1] = '{' && (line.[i] = ')' || Util.Strutil.is_ident_char line.[i]) then
        push Missing_space_before_brace;
      scan (i + 1)
    end
  in
  scan 0;
  List.rev !findings

let of_source ~file source =
  List.concat (List.mapi (fun i l -> check_line ~file (i + 1) l) (Util.Strutil.lines source))

let of_tu (tu : Cfront.Ast.tu) = of_source ~file:tu.tu_file tu.Cfront.Ast.raw_source

let of_files pfs = List.concat_map (fun pf -> of_tu (Cfront.Project.tu pf)) pfs

end

(* ---- Metrics.Architecture ---- *)
module Architecture = struct
let calls_marker markers (fns : Cfront.Ast.func list) =
  List.exists
    (fun fn ->
      let found = ref false in
      Cfront.Ast.iter_exprs_of_func
        (fun e ->
          match e.Cfront.Ast.e with
          | Cfront.Ast.Call ({ e = Cfront.Ast.Id name; _ }, _) when List.mem name markers ->
            found := true
          | _ -> ())
        fn;
      !found)
    fns

end

(* ---- Cudasim.Census ---- *)
module Cuda_census = struct
  open Cudasim.Census

let has_bound_check (fn : Cfront.Ast.func) =
  let found = ref false in
  (match fn.Cfront.Ast.f_body with
   | None -> ()
   | Some body ->
     Cfront.Ast.iter_stmts
       (fun s ->
         match s.Cfront.Ast.s with
         | Cfront.Ast.Sif { cond; _ } ->
           Cfront.Ast.iter_exprs_of_expr
             (fun e ->
               match e.Cfront.Ast.e with
               | Cfront.Ast.Binary ((Cfront.Ast.Lt | Cfront.Ast.Le | Cfront.Ast.Ge
                                    | Cfront.Ast.Gt), _, _) ->
                 found := true
               | _ -> ())
             cond
         | _ -> ())
       body);
  !found

let of_tu (tu : Cfront.Ast.tu) =
  let fns = Cfront.Ast.functions_of_tu tu in
  let kernels_l =
    List.filter (fun f -> List.mem Cfront.Ast.Q_global f.Cfront.Ast.f_quals) fns
  in
  let device_fns =
    List.filter (fun f -> List.mem Cfront.Ast.Q_device f.Cfront.Ast.f_quals) fns
  in
  let count_calls name =
    let n = ref 0 in
    List.iter
      (fun fn ->
        Cfront.Ast.iter_exprs_of_func
          (fun e ->
            match e.Cfront.Ast.e with
            | Cfront.Ast.Call ({ e = Cfront.Ast.Id callee; _ }, _) when callee = name ->
              incr n
            | _ -> ())
          fn)
      fns;
    !n
  in
  let launches = ref 0 in
  List.iter
    (fun fn ->
      Cfront.Ast.iter_exprs_of_func
        (fun e ->
          match e.Cfront.Ast.e with
          | Cfront.Ast.Kernel_launch _ -> incr launches
          | _ -> ())
        fn)
    fns;
  let kparams = List.concat_map (fun f -> f.Cfront.Ast.f_params) kernels_l in
  {
    kernels = List.length kernels_l;
    device_functions = List.length device_fns;
    kernel_launches = !launches;
    cuda_mallocs = count_calls "cudaMalloc";
    cuda_memcpys = count_calls "cudaMemcpy";
    cuda_frees = count_calls "cudaFree";
    kernel_pointer_params =
      List.length
        (List.filter (fun p -> Cfront.Ast.is_pointer_type p.Cfront.Ast.p_type) kparams);
    kernel_params = List.length kparams;
    kernels_without_bound_check =
      List.length
        (List.filter
           (fun f -> f.Cfront.Ast.f_body <> None && not (has_bound_check f))
           kernels_l);
    device_globals =
      List.length
        (List.filter (fun g -> g.Cfront.Ast.g_device) (Cfront.Ast.globals_of_tu tu));
  }

let of_files (pfs : Cfront.Project.parsed_file list) =
  List.fold_left (fun acc pf -> add acc (of_tu (Cfront.Project.tu pf))) zero pfs

end

(* ---- Interproc.Summary ---- *)
module Interproc_direct = struct
  module SS = Interproc.Summary.SS

  let io_names =
    SS.of_list
      [ "printf"; "fprintf"; "sprintf"; "snprintf"; "vprintf"; "puts";
        "putchar"; "fopen"; "fclose"; "fread"; "fwrite"; "fgets"; "fputs";
        "scanf"; "fscanf"; "sscanf"; "getc"; "getchar"; "gets"; "perror" ]

  let alloc_names =
    SS.of_list [ "malloc"; "calloc"; "realloc"; "free"; "aligned_alloc" ]

  let rec decl_words = function
    | Ast.Tarray (t, Some n) -> n * decl_words t
    | Ast.Tarray (t, None) -> decl_words t
    | Ast.Tconst t -> decl_words t
    | _ -> 1

  type direct = {
    dr_reads : SS.t;
    dr_writes : SS.t;
    dr_io : bool;
    dr_alloc : bool;
    dr_frame : int;
    dr_mentions : SS.t;  (** every identifier occurring in the body *)
  }

(* Local declaration and parameter names, to separate global accesses
   from local ones of the same simple name. *)
let local_names (fn : Ast.func) =
  let acc = ref SS.empty in
  List.iter (fun p -> acc := SS.add p.Ast.p_name !acc) fn.Ast.f_params;
  (match fn.Ast.f_body with
   | None -> ()
   | Some body ->
     Ast.iter_stmts
       (fun s ->
         match s.Ast.s with
         | Ast.Sdecl ds | Ast.Sfor { init = Ast.Fi_decl ds; _ } ->
           List.iter (fun d -> acc := SS.add d.Ast.v_name !acc) ds
         | _ -> ())
       body);
  !acc

let direct_facts ~globals (fn : Ast.func) (cfg : Dataflow.Cfg.t) =
  let locals = local_names fn in
  let is_global n = SS.mem n globals && not (SS.mem n locals) in
  let reads = ref SS.empty and writes = ref SS.empty in
  let io = ref false and alloc = ref false in
  Array.iter
    (fun (blk : Dataflow.Cfg.block) ->
      List.iter
        (fun (instr : Dataflow.Cfg.instr) ->
          List.iter
            (fun (n, _) -> if is_global n then reads := SS.add n !reads)
            (Dataflow.Cfg.uses_of_instr instr);
          List.iter
            (fun (n, _) -> if is_global n then writes := SS.add n !writes)
            (Dataflow.Cfg.defs_of_instr instr);
          (* address-taken global: its value may be written through the
             pointer — count as a write *)
          List.iter
            (fun n -> if is_global n then writes := SS.add n !writes)
            (Dataflow.Cfg.addr_taken_of_instr instr))
        blk.Dataflow.Cfg.instrs)
    cfg.Dataflow.Cfg.blocks;
  let mentions = ref SS.empty in
  let frame_locals = ref 0 in
  Ast.iter_exprs_of_func
    (fun e ->
      match e.Ast.e with
      | Ast.Id n -> mentions := SS.add n !mentions
      | Ast.New _ | Ast.Delete _ -> alloc := true
      | Ast.Call ({ e = Ast.Id n; _ }, _) ->
        if SS.mem n io_names then io := true;
        if SS.mem n alloc_names then alloc := true
      | _ -> ())
    fn;
  (match fn.Ast.f_body with
   | None -> ()
   | Some body ->
     Ast.iter_stmts
       (fun s ->
         match s.Ast.s with
         | Ast.Sdecl ds | Ast.Sfor { init = Ast.Fi_decl ds; _ } ->
           List.iter
             (fun d -> frame_locals := !frame_locals + decl_words d.Ast.v_type)
             ds
         | _ -> ())
       body);
  {
    dr_reads = !reads;
    dr_writes = !writes;
    dr_io = !io;
    dr_alloc = !alloc;
    dr_frame = 2 + List.length fn.Ast.f_params + !frame_locals;
    dr_mentions = !mentions;
  }

  let addr_of_id_args (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Call ({ e = Ast.Id f; _ }, args) ->
      Some
        ( f,
          List.map
            (fun (a : Ast.expr) ->
              match a.Ast.e with
              | Ast.Unary (Ast.Addr_of, { e = Ast.Id x; _ }) -> (a, Some x)
              | _ -> (a, None))
            args )
    | _ -> None

(* Only a direct call with a [&x] argument can make an address-taking
   non-initializing, so a function without one has no cross-call flow. *)
let passes_address (fn : Ast.func) =
  let found = ref false in
  Ast.iter_exprs_of_func
    (fun e ->
      match addr_of_id_args e with
      | Some (_, args) when List.exists (fun (_, x) -> x <> None) args ->
        found := true
      | _ -> ())
    fn;
  !found


  (* The former facts in today's shape: the mentions narrowed to the
     parameters, and the address-passing flag. *)
  let facts ~globals (fn : Ast.func) =
    let d = direct_facts ~globals fn (Dataflow.Cfg.of_func fn) in
    {
      Interproc.Summary.dr_reads = d.dr_reads;
      dr_writes = d.dr_writes;
      dr_io = d.dr_io;
      dr_alloc = d.dr_alloc;
      dr_frame = d.dr_frame;
      dr_params_mentioned =
        SS.of_list
          (List.filter_map
             (fun (p : Ast.param) ->
               if SS.mem p.Ast.p_name d.dr_mentions then Some p.Ast.p_name else None)
             fn.Ast.f_params);
      dr_passes_address = passes_address fn;
    }
end

(* ------------------------------------------------------------------ *)
(* Comparisons                                                          *)
(* ------------------------------------------------------------------ *)

let defined fns = List.filter (fun f -> f.Ast.f_body <> None) fns

let style_rules =
  Metrics.Style.
    [ Line_too_long; Tab_character; Trailing_whitespace; Odd_indentation;
      Missing_space_before_brace ]

(* Where the census of the defined functions of [fns] differs from the
   walks above, one message per difference; [] when it reproduces them. *)
let census_mismatches (fns : Ast.func list) =
  let fns = defined fns in
  let got = Metrics.Census.of_functions fns in
  let errs = ref [] in
  let expect what ok = if not ok then errs := what :: !errs in
  List.iter2
    (fun fn (c : Metrics.Census.counts) ->
      let say field = Ast.qualified_name fn ^ ": " ^ field in
      expect (say "cc") (c.Metrics.Census.cc = Complexity.of_func fn);
      (match Func_shape.of_func fn with
       | Some s ->
         expect (say "returns") (s.Func_shape.returns = c.Metrics.Census.returns);
         expect (say "gotos") (s.Func_shape.gotos = c.Metrics.Census.gotos);
         expect (say "throws") (s.Func_shape.throws = c.Metrics.Census.throws);
         expect (say "multi exit") (s.Func_shape.multi_exit = c.Metrics.Census.multi_exit)
       | None -> expect (say "shape") false);
      expect (say "pointer usage")
        (Pointers.usage_of_func fn
        = { Metrics.Pointers.ptr_params = c.Metrics.Census.ptr_params;
            ptr_locals = c.Metrics.Census.ptr_locals; derefs = c.Metrics.Census.derefs;
            address_of = c.Metrics.Census.address_of });
      (match Defensive.param_check_of_func fn with
       | Some pc ->
         expect (say "pointer params")
           (List.length pc.Defensive.pointer_params = c.Metrics.Census.ptr_params);
         expect (say "checked params")
           (List.length pc.Defensive.checked_params = c.Metrics.Census.checked_params)
       | None ->
         expect (say "checked params")
           (c.Metrics.Census.ptr_params = 0 && c.Metrics.Census.checked_params = 0));
      expect (say "assertions") (Defensive.assertion_count [ fn ] = c.Metrics.Census.assertions);
      expect (say "bound check") (Cuda_census.has_bound_check fn = c.Metrics.Census.bound_check);
      expect (say "interrupts")
        (Architecture.calls_marker Metrics.Architecture.interrupt_markers [ fn ]
        = c.Metrics.Census.interrupts);
      expect (say "threads")
        (Architecture.calls_marker Metrics.Architecture.thread_markers [ fn ]
        = c.Metrics.Census.threads))
    fns got.Metrics.Census.counts;
  expect "casts" (got.Metrics.Census.casts = Casts.of_functions fns);
  expect "ignored returns"
    (got.Metrics.Census.ignored_returns = Defensive.ignored_returns ~funcs:fns fns);
  expect "dynamic allocations"
    (got.Metrics.Census.dyn_allocs = Pointers.dyn_allocs_of_functions fns);
  List.rev !errs

(* [census_mismatches] of a unit's functions, and where its line counts,
   style hits and CUDA census differ from the former per-unit walks. *)
let unit_mismatches (tu : Ast.tu) =
  let fns = defined (Ast.functions_of_tu tu) in
  let counts = (Metrics.Census.of_functions fns).Metrics.Census.counts in
  let scan = Metrics.Style.scan tu.Ast.raw_source in
  let errs = ref [] in
  let expect what ok = if not ok then errs := (tu.Ast.tu_file ^ ": " ^ what) :: !errs in
  expect "line counts"
    (Metrics.Style.loc_counts tu scan
       ~logical:(Metrics.Census.sum (fun c -> c.Metrics.Census.logical) counts)
    = Loc_metrics.of_tu tu);
  let findings = Style.of_tu tu in
  List.iter
    (fun rule ->
      expect
        (Printf.sprintf "style rule %d" (Metrics.Style.index rule))
        (Metrics.Style.hits scan rule
        = List.length (List.filter (fun (f : Style.finding) -> f.Style.rule = rule) findings)))
    style_rules;
  expect "CUDA census" (Cudasim.Census.of_unit tu counts = Cuda_census.of_tu tu);
  List.rev !errs @ census_mismatches fns

(* The mutable globals of [tus], by simple name. *)
let globals_of_tus tus =
  List.fold_left
    (fun acc tu ->
      List.fold_left
        (fun acc (g : Ast.global_var) ->
          if Ast.is_mutable_global g then Interproc.Summary.SS.add g.Ast.g_decl.Ast.v_name acc
          else acc)
        acc (Ast.globals_of_tu tu))
    Interproc.Summary.SS.empty tus

(* Where interproc's direct facts of the defined functions of [fns]
   differ from the CFG-based ones, given the program's [globals]. *)
let direct_mismatches ~globals (fns : Ast.func list) =
  let module SS = Interproc.Summary.SS in
  let table = Hashtbl.create 64 in
  SS.iter (fun g -> Hashtbl.replace table g ()) globals;
  List.concat_map
    (fun fn ->
      let got = Interproc.Summary.direct_facts ~globals:table fn in
      let want = Interproc_direct.facts ~globals fn in
      let say field = Ast.qualified_name fn ^ ": " ^ field in
      List.filter_map
        (fun (field, ok) -> if ok then None else Some (say field))
        [ ("reads", SS.equal got.Interproc.Summary.dr_reads want.Interproc.Summary.dr_reads);
          ("writes", SS.equal got.Interproc.Summary.dr_writes want.Interproc.Summary.dr_writes);
          ("io", got.Interproc.Summary.dr_io = want.Interproc.Summary.dr_io);
          ("alloc", got.Interproc.Summary.dr_alloc = want.Interproc.Summary.dr_alloc);
          ("frame", got.Interproc.Summary.dr_frame = want.Interproc.Summary.dr_frame);
          ( "mentioned parameters",
            SS.equal got.Interproc.Summary.dr_params_mentioned
              want.Interproc.Summary.dr_params_mentioned );
          ( "passes address",
            got.Interproc.Summary.dr_passes_address = want.Interproc.Summary.dr_passes_address ) ])
    (defined fns)
