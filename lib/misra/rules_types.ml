(** Type- and expression-level rules (MISRA C:2012 sections 7-11). *)

open Cfront

(* 7.1: octal constants shall not be used. *)
let r7_1 =
  Rule.make ~id:"7.1" ~title:"octal constants shall not be used"
    ~category:Rule.Required (fun ctx ->
      List.concat_map
        (fun pf ->
          let toks = (Project.tu pf).Ast.tokens in
          Token.filter_mapi
            (fun i -> function
              | Token.Int_lit (_, raw)
                when String.length raw > 1 && raw.[0] = '0'
                     && raw.[1] <> 'x' && raw.[1] <> 'X'
                     && Util.Strutil.for_all Util.Strutil.is_digit raw ->
                Some (Rule.v ~rule_id:"7.1" ~loc:(Token.loc toks i) "octal constant %s" raw)
              | _ -> None)
            toks)
        ctx.Rule.files)

(* 5.1: external identifiers shall be distinct within limits (we flag
   identifiers longer than 31 characters, where legacy linkers truncate). *)
let r5_1 =
  Rule.make ~id:"5.1" ~title:"identifiers shall be distinct in 31 characters"
    ~category:Rule.Required (fun ctx ->
      List.concat_map
        (fun (fn : Ast.func) ->
          if String.length fn.Ast.f_name > 31 then
            [ Rule.v ~rule_id:"5.1" ~loc:fn.Ast.f_loc "identifier %s exceeds 31 characters"
                fn.Ast.f_name ]
          else [])
        ctx.Rule.functions)

(* 5.3: an identifier in an inner scope shall not hide an outer one. *)
let r5_3 =
  Rule.make ~id:"5.3" ~title:"no identifier shadowing" ~category:Rule.Required
    (fun ctx ->
      List.map
        (fun (f : Metrics.Shadowing.finding) ->
          Rule.v ~rule_id:"5.3" ~loc:f.Metrics.Shadowing.loc "%s: %s"
            f.Metrics.Shadowing.name
            (Metrics.Shadowing.kind_name f.Metrics.Shadowing.kind))
        ctx.Rule.shadowing)

(* 10.1/10.3: implicit conversions between essential types. *)
let r10_3 =
  Rule.make ~id:"10.3" ~title:"no implicit narrowing conversions"
    ~category:Rule.Required (fun ctx ->
      List.filter_map
        (fun (c : Metrics.Casts.record) ->
          match c.Metrics.Casts.kind with
          | Metrics.Casts.Implicit_narrowing ->
            Some
              (Rule.v ~rule_id:"10.3" ~loc:c.Metrics.Casts.loc
                 "implicit float-to-int conversion in %s" c.Metrics.Casts.in_function)
          | _ -> None)
        ctx.Rule.casts)

(* 11.x: C-style casts between object pointers / reinterpret casts. *)
let r11_3 =
  Rule.visitor ~id:"11.3" ~title:"no cast between pointers to different types"
    ~category:Rule.Required
    (Rule.collecting ~exprs:[ `C_cast; `Cpp_cast ]
       ~expr:(fun a e ->
         match e.Ast.e with
         | Ast.C_cast (ty, _) when Ast.is_pointer_type ty ->
           Rule.emit a
             (Rule.v ~rule_id:"11.3" ~loc:e.Ast.eloc "C-style pointer cast to %s in %s"
                (Ast.type_to_string ty) (Rule.name a.Rule.info))
         | Ast.Cpp_cast (Ast.Reinterpret_cast, ty, _) ->
           Rule.emit a
             (Rule.v ~rule_id:"11.3" ~loc:e.Ast.eloc "reinterpret_cast to %s in %s"
                (Ast.type_to_string ty) (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 11.8: a cast shall not remove const qualification. *)
let r11_8 =
  Rule.visitor ~id:"11.8" ~title:"no cast removing const" ~category:Rule.Required
    (Rule.collecting ~exprs:[ `Cpp_cast ]
       ~expr:(fun a e ->
         match e.Ast.e with
         | Ast.Cpp_cast (Ast.Const_cast, _, _) ->
           Rule.emit a
             (Rule.v ~rule_id:"11.8" ~loc:e.Ast.eloc "const_cast in %s"
                (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 11.9: the macro NULL / literal 0 shall not be used as a pointer
   constant — nullptr is required in C++11 style. *)
let r11_9 =
  Rule.visitor ~id:"11.9" ~title:"use nullptr for null pointer constants"
    ~category:Rule.Required
    (Rule.collecting ~exprs:[ `Id; `C_cast ]
       ~expr:(fun a e ->
         match e.Ast.e with
         | Ast.Id "NULL" ->
           Rule.emit a
             (Rule.v ~rule_id:"11.9" ~loc:e.Ast.eloc "NULL macro in %s"
                (Rule.name a.Rule.info))
         | Ast.C_cast (ty, { e = Ast.Int_const 0L; _ }) when Ast.is_pointer_type ty ->
           Rule.emit a
             (Rule.v ~rule_id:"11.9" ~loc:e.Ast.eloc "(T*)0 null constant in %s"
                (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 18.5: declarations shall contain at most two levels of pointer
   nesting.  A function's parameters are reported before its locals. *)
let r18_5 =
  let depth ty =
    let rec go n = function
      | Ast.Tptr t -> go (n + 1) t
      | Ast.Tconst t -> go n t
      | _ -> n
    in
    go 0 ty
  in
  Rule.visitor ~id:"18.5" ~title:"at most two levels of pointer nesting"
    ~category:Rule.Advisory
    (Rule.Visit
       { stmts = [ `Sdecl ];
         exprs = [];
         start = (fun info -> { Rule.info; found = [] });
         stmt =
           (fun a s ->
             match s.Ast.s with
             | Ast.Sdecl ds ->
               List.iter
                 (fun (d : Ast.var_decl) ->
                   if depth d.Ast.v_type > 2 then
                     Rule.emit a
                       (Rule.v ~rule_id:"18.5" ~loc:d.Ast.v_loc
                          "local %s has %d levels of pointers" d.Ast.v_name
                          (depth d.Ast.v_type)))
                 ds
             | _ -> ());
         expr = (fun _ _ -> ());
         finish =
           (fun a ->
             let fn = a.Rule.info.Rule.fn in
             let from_params =
               List.filter_map
                 (fun (p : Ast.param) ->
                   if depth p.Ast.p_type > 2 then
                     Some
                       (Rule.v ~rule_id:"18.5" ~loc:fn.Ast.f_loc
                          "parameter %s of %s has %d levels of pointers" p.Ast.p_name
                          (Rule.name a.Rule.info) (depth p.Ast.p_type))
                   else None)
                 fn.Ast.f_params
             in
             from_params @ List.rev a.Rule.found) })

(* 12.2: the right operand of a shift shall lie in the range 0..width-1. *)
let r12_2 =
  Rule.visitor ~id:"12.2" ~title:"shift amounts shall be in range"
    ~category:Rule.Required
    (Rule.collecting ~exprs:[ `Binary ]
       ~expr:(fun a e ->
         match e.Ast.e with
         | Ast.Binary ((Ast.Shl | Ast.Shr), _, { e = Ast.Int_const n; _ })
           when n < 0L || n >= 32L ->
           Rule.emit a
             (Rule.v ~rule_id:"12.2" ~loc:e.Ast.eloc "shift by %Ld in %s" n
                (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 2.2: no dead code.  Two complementary detectors:
   - an expression statement with no side effect (syntactic, as before);
   - a dead store: an assignment statement whose value is never read on
     any path (flow-sensitive: the assignment-kind dead stores of the
     dataflow layer's liveness facts).  This catches operations the syntactic scan
     calls effectful but whose outcome cannot influence the program —
     e.g. a store on one branch that every successor overwrites.
   A function's syntactic findings come before its dead stores. *)
let r2_2 =
  let rec has_side_effect e =
    match e.Ast.e with
    | Ast.Assign _ | Ast.Call _ | Ast.Kernel_launch _ | Ast.New _ | Ast.Delete _
    | Ast.Throw _
    | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), _)
    | Ast.Postfix _ -> true
    | Ast.Unary (_, a) | Ast.C_cast (_, a) | Ast.Cpp_cast (_, _, a) -> has_side_effect a
    | Ast.Binary (_, a, b) | Ast.Index (a, b) -> has_side_effect a || has_side_effect b
    | Ast.Ternary (a, b, c) -> has_side_effect a || has_side_effect b || has_side_effect c
    | Ast.Member { obj; _ } -> has_side_effect obj
    | _ -> false
  in
  Rule.visitor ~id:"2.2" ~title:"no dead code" ~category:Rule.Required
    (Rule.Visit
       { stmts = [ `Sexpr ];
         exprs = [];
         start = (fun info -> { Rule.info; found = [] });
         stmt =
           (fun a s ->
             match s.Ast.s with
             | Ast.Sexpr e when not (has_side_effect e) ->
               Rule.emit a
                 (Rule.v ~rule_id:"2.2" ~loc:s.Ast.sloc
                    "expression statement without side effect in %s"
                    (Rule.name a.Rule.info))
             | _ -> ());
         expr = (fun _ _ -> ());
         finish =
           (fun a ->
             let dead =
               List.filter_map
                 (fun (d : Dataflow.Analyses.dead_store) ->
                   match d.Dataflow.Analyses.d_kind with
                   | Dataflow.Analyses.Sassign ->
                     Some
                       (Rule.v ~rule_id:"2.2" ~loc:d.Dataflow.Analyses.d_loc
                          "dead store to %s in %s" d.Dataflow.Analyses.d_var
                          (Rule.name a.Rule.info))
                   | Dataflow.Analyses.Sdecl_init -> None)
                 a.Rule.info.Rule.facts.Dataflow.Analyses.x_dead_stores
             in
             match a.Rule.info.Rule.fn.Ast.f_body with
             | None -> []
             | Some _ -> List.rev_append a.Rule.found dead) })

(* 13.x: side effects inside && / || operands. *)
let r13_5 =
  let rec impure e =
    match e.Ast.e with
    | Ast.Assign _ | Ast.Kernel_launch _ | Ast.New _ | Ast.Delete _
    | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), _) | Ast.Postfix _ -> true
    | Ast.Call _ -> false  (* calls tolerated: too noisy otherwise *)
    | Ast.Unary (_, a) | Ast.C_cast (_, a) | Ast.Cpp_cast (_, _, a) -> impure a
    | Ast.Binary (_, a, b) | Ast.Index (a, b) -> impure a || impure b
    | Ast.Ternary (a, b, c) -> impure a || impure b || impure c
    | Ast.Member { obj; _ } -> impure obj
    | _ -> false
  in
  Rule.visitor ~id:"13.5" ~title:"no side effects in && / || operands"
    ~category:Rule.Required
    (Rule.collecting ~exprs:[ `Binary ]
       ~expr:(fun a e ->
         match e.Ast.e with
         | Ast.Binary ((Ast.Land | Ast.Lor), _, rhs) when impure rhs ->
           Rule.emit a
             (Rule.v ~rule_id:"13.5" ~loc:e.Ast.eloc
                "side effect in short-circuit RHS in %s" (Rule.name a.Rule.info))
         | _ -> ())
       ())

let all = [ r2_2; r5_1; r5_3; r7_1; r10_3; r11_3; r11_8; r11_9; r12_2; r13_5; r18_5 ]
