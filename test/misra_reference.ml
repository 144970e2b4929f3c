(* The rules the shared walk runs, as they stood while each was a
   [check] of its own: each walks every function itself (or, for 10.3,
   17.7 and 21.3, computes the record it reads, and for Dir 4.4 splits
   the source into stripped lines).  17.2 and CUDA-5 as they stood
   while they computed the recursion cycles themselves, and CUDA-3 while
   it walked each unit once per function name it counts, and 8.7 while it
   walked every body for its callee names.  They are the oracle the shipped
   forms must reproduce, violation for violation and in order
   (test_misra's "visitor forms match their former bodies"). *)

open Cfront
module Rule = Misra.Rule

(* ---- rules_control ---- *)
let each_func (ctx : Rule.context) f = List.concat_map f ctx.Rule.functions

let each_body fn k =
  match fn.Ast.f_body with None -> [] | Some body -> k body

(* 15.1: the goto statement should not be used. *)
let r15_1 =
  Rule.make ~id:"15.1" ~title:"goto shall not be used" ~category:Rule.Advisory
    (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let acc = ref [] in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Sgoto label ->
                    acc :=
                      Rule.v ~rule_id:"15.1" ~loc:s.Ast.sloc "goto %s in %s" label
                        (Ast.qualified_name fn)
                      :: !acc
                  | _ -> ())
                body;
              List.rev !acc)))

(* 15.2: goto shall jump to a label declared later in the same function. *)
let r15_2 =
  Rule.make ~id:"15.2" ~title:"goto shall jump forward only" ~category:Rule.Required
    (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let labels = Hashtbl.create 4 in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Slabel (l, _) -> Hashtbl.replace labels l s.Ast.sloc.Loc.line
                  | _ -> ())
                body;
              let acc = ref [] in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Sgoto l ->
                    (match Hashtbl.find_opt labels l with
                     | Some line when line < s.Ast.sloc.Loc.line ->
                       acc :=
                         Rule.v ~rule_id:"15.2" ~loc:s.Ast.sloc
                           "backward goto %s in %s" l (Ast.qualified_name fn)
                         :: !acc
                     | _ -> ())
                  | _ -> ())
                body;
              List.rev !acc)))

(* 15.4: there should be at most one break or goto used to terminate a loop. *)
let r15_4 =
  Rule.make ~id:"15.4" ~title:"at most one break per loop" ~category:Rule.Advisory
    (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let acc = ref [] in
              (* count breaks directly inside each loop body, not nested in
                 an inner loop or switch *)
              let rec breaks_in s =
                match s.Ast.s with
                | Ast.Sbreak -> 1
                | Ast.Sblock ss -> Util.Stats.sum_int (List.map breaks_in ss)
                | Ast.Sif { then_; else_; _ } ->
                  breaks_in then_ + Option.fold ~none:0 ~some:breaks_in else_
                | Ast.Slabel (_, inner) -> breaks_in inner
                | Ast.Stry { body; catches } ->
                  breaks_in body
                  + Util.Stats.sum_int (List.map (fun (_, s) -> breaks_in s) catches)
                | _ -> 0
              in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Swhile (_, b) | Ast.Sdo_while (b, _) | Ast.Sfor { body = b; _ } ->
                    if breaks_in b > 1 then
                      acc :=
                        Rule.v ~rule_id:"15.4" ~loc:s.Ast.sloc
                          "%d break statements terminate one loop in %s"
                          (breaks_in b) (Ast.qualified_name fn)
                        :: !acc
                  | _ -> ())
                body;
              List.rev !acc)))

(* 15.5: a function should have a single point of exit at the end. *)
let r15_5 =
  Rule.make ~id:"15.5" ~title:"single point of exit" ~category:Rule.Advisory
    (fun ctx ->
      List.filter_map
        (fun fn ->
          match Census_reference.Func_shape.of_func fn with
          | Some shape when shape.Census_reference.Func_shape.multi_exit ->
            Some
              (Rule.v ~rule_id:"15.5" ~loc:fn.Ast.f_loc
                 "%s has %d return statements" (Ast.qualified_name fn)
                 shape.Census_reference.Func_shape.returns)
          | _ -> None)
        ctx.Rule.functions)

(* 15.6: the body of an iteration/selection statement shall be compound. *)
let r15_6 =
  Rule.make ~id:"15.6" ~title:"loop/if bodies shall be compound statements"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let acc = ref [] in
              let is_block s = match s.Ast.s with Ast.Sblock _ -> true | _ -> false in
              let flag loc what =
                acc := Rule.v ~rule_id:"15.6" ~loc "%s body is not a compound statement in %s"
                    what (Ast.qualified_name fn) :: !acc
              in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Sif { then_; else_; _ } ->
                    if not (is_block then_) then flag then_.Ast.sloc "if";
                    (match else_ with
                     | Some ({ s = Ast.Sif _; _ }) -> ()  (* else-if chain is fine *)
                     | Some e when not (is_block e) -> flag e.Ast.sloc "else"
                     | _ -> ())
                  | Ast.Swhile (_, b) -> if not (is_block b) then flag b.Ast.sloc "while"
                  | Ast.Sdo_while (b, _) -> if not (is_block b) then flag b.Ast.sloc "do"
                  | Ast.Sfor { body = b; _ } -> if not (is_block b) then flag b.Ast.sloc "for"
                  | _ -> ())
                body;
              List.rev !acc)))

(* 15.7: all if...else if constructs shall be terminated with an else. *)
let r15_7 =
  Rule.make ~id:"15.7" ~title:"if-else-if chains shall end with else"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let acc = ref [] in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Sif { else_ = Some { s = Ast.Sif { else_ = None; _ }; sloc; _ }; _ } ->
                    acc :=
                      Rule.v ~rule_id:"15.7" ~loc:sloc
                        "if-else-if without final else in %s" (Ast.qualified_name fn)
                      :: !acc
                  | _ -> ())
                body;
              List.rev !acc)))

(* 16.4: every switch statement shall have a default label. *)
let r16_4 =
  Rule.make ~id:"16.4" ~title:"every switch shall have a default"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let acc = ref [] in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Sswitch (_, sw_body) ->
                    let has_default = ref false in
                    Ast.iter_stmts
                      (fun t -> match t.Ast.s with Ast.Sdefault -> has_default := true | _ -> ())
                      sw_body;
                    if not !has_default then
                      acc :=
                        Rule.v ~rule_id:"16.4" ~loc:s.Ast.sloc
                          "switch without default in %s" (Ast.qualified_name fn)
                        :: !acc
                  | _ -> ())
                body;
              List.rev !acc)))

(* 16.6: every switch shall have at least two switch-clauses. *)
let r16_6 =
  Rule.make ~id:"16.6" ~title:"switch shall have at least two clauses"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let acc = ref [] in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Sswitch (_, sw_body) ->
                    let clauses = ref 0 in
                    Ast.iter_stmts
                      (fun t ->
                        match t.Ast.s with
                        | Ast.Scase _ | Ast.Sdefault -> incr clauses
                        | _ -> ())
                      sw_body;
                    if !clauses < 2 then
                      acc :=
                        Rule.v ~rule_id:"16.6" ~loc:s.Ast.sloc
                          "switch with %d clause(s) in %s" !clauses
                          (Ast.qualified_name fn)
                        :: !acc
                  | _ -> ())
                body;
              List.rev !acc)))

(* 16.3: an unconditional break shall terminate every switch-clause
   (fall-through detection). *)
let r16_3 =
  Rule.make ~id:"16.3" ~title:"every switch clause shall end with break"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let acc = ref [] in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Sswitch (_, { s = Ast.Sblock stmts; _ }) ->
                    (* scan clause boundaries: a case/default label reached
                       while the previous clause has statements but no
                       terminator is a fall-through *)
                    let in_clause = ref false in
                    let clause_terminated = ref true in
                    let clause_has_code = ref false in
                    List.iter
                      (fun t ->
                        match t.Ast.s with
                        | Ast.Scase _ | Ast.Sdefault ->
                          if !in_clause && !clause_has_code && not !clause_terminated then
                            acc :=
                              Rule.v ~rule_id:"16.3" ~loc:t.Ast.sloc
                                "switch clause falls through in %s"
                                (Ast.qualified_name fn)
                              :: !acc;
                          in_clause := true;
                          clause_terminated := false;
                          clause_has_code := false
                        | Ast.Sbreak | Ast.Sreturn _ | Ast.Sgoto _ | Ast.Scontinue ->
                          clause_terminated := true
                        | _ ->
                          clause_has_code := true;
                          (* a block ending in break also terminates *)
                          let rec ends_in_jump st =
                            match st.Ast.s with
                            | Ast.Sbreak | Ast.Sreturn _ | Ast.Sgoto _ | Ast.Scontinue -> true
                            | Ast.Sblock ss ->
                              (match List.rev ss with
                               | last :: _ -> ends_in_jump last
                               | [] -> false)
                            | _ -> false
                          in
                          if ends_in_jump t then clause_terminated := true)
                      stmts
                  | _ -> ())
                body;
              List.rev !acc)))

(* 14.3: controlling expressions shall not be invariant. *)
let r14_3 =
  Rule.make ~id:"14.3" ~title:"controlling expressions shall not be invariant"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let acc = ref [] in
              let is_const_expr e =
                match e.Ast.e with
                | Ast.Int_const _ | Ast.Bool_const _ | Ast.Float_const _ -> true
                | _ -> false
              in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Sif { cond; _ } when is_const_expr cond ->
                    acc :=
                      Rule.v ~rule_id:"14.3" ~loc:s.Ast.sloc
                        "constant if-condition in %s" (Ast.qualified_name fn)
                      :: !acc
                  | Ast.Sdo_while (_, c) when is_const_expr c ->
                    (match c.Ast.e with
                     | Ast.Int_const 0L | Ast.Bool_const false -> ()  (* do {...} while(0) idiom *)
                     | _ ->
                       acc :=
                         Rule.v ~rule_id:"14.3" ~loc:s.Ast.sloc
                           "constant do-while condition in %s" (Ast.qualified_name fn)
                         :: !acc)
                  | _ -> ())
                body;
              List.rev !acc)))

(* 14.1: loop counters shall not have floating type. *)
let r14_1 =
  Rule.make ~id:"14.1" ~title:"no floating-point loop counters"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let acc = ref [] in
              Ast.iter_stmts
                (fun s ->
                  match s.Ast.s with
                  | Ast.Sfor { init = Ast.Fi_decl ds; _ } ->
                    List.iter
                      (fun (d : Ast.var_decl) ->
                        match d.Ast.v_type with
                        | Ast.Tfloat | Ast.Tdouble ->
                          acc :=
                            Rule.v ~rule_id:"14.1" ~loc:d.Ast.v_loc
                              "float loop counter %s in %s" d.Ast.v_name
                              (Ast.qualified_name fn)
                            :: !acc
                        | _ -> ())
                      ds
                  | _ -> ())
                body;
              List.rev !acc)))

(* 13.4: the result of an assignment operator should not be used
   (assignment inside a condition). *)
let r13_4 =
  Rule.make ~id:"13.4" ~title:"no assignment in controlling expressions"
    ~category:Rule.Advisory (fun ctx ->
      each_func ctx (fun fn ->
          each_body fn (fun body ->
              let acc = ref [] in
              let has_assign e =
                let found = ref false in
                Ast.iter_exprs_of_expr
                  (fun x -> match x.Ast.e with Ast.Assign _ -> found := true | _ -> ())
                  e;
                !found
              in
              Ast.iter_stmts
                (fun s ->
                  let flag loc =
                    acc :=
                      Rule.v ~rule_id:"13.4" ~loc "assignment used as condition in %s"
                        (Ast.qualified_name fn)
                      :: !acc
                  in
                  match s.Ast.s with
                  | Ast.Sif { cond; _ } when has_assign cond -> flag s.Ast.sloc
                  | Ast.Swhile (c, _) when has_assign c -> flag s.Ast.sloc
                  | Ast.Sdo_while (_, c) when has_assign c -> flag s.Ast.sloc
                  | _ -> ())
                body;
              List.rev !acc)))

(* 12.3: the comma operator should not be used. *)
let r12_3 =
  Rule.make ~id:"12.3" ~title:"comma operator shall not be used"
    ~category:Rule.Advisory (fun ctx ->
      each_func ctx (fun fn ->
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Binary (Ast.Comma, _, _) ->
                acc :=
                  Rule.v ~rule_id:"12.3" ~loc:e.Ast.eloc "comma operator in %s"
                    (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* ---- rules_types ---- *)
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
        (Census_reference.Casts.of_functions ctx.Rule.functions))

(* 11.x: C-style casts between object pointers / reinterpret casts. *)
let r11_3 =
  Rule.make ~id:"11.3" ~title:"no cast between pointers to different types"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.C_cast (ty, _) when Ast.is_pointer_type ty ->
                acc :=
                  Rule.v ~rule_id:"11.3" ~loc:e.Ast.eloc
                    "C-style pointer cast to %s in %s" (Ast.type_to_string ty)
                    (Ast.qualified_name fn)
                  :: !acc
              | Ast.Cpp_cast (Ast.Reinterpret_cast, ty, _) ->
                acc :=
                  Rule.v ~rule_id:"11.3" ~loc:e.Ast.eloc
                    "reinterpret_cast to %s in %s" (Ast.type_to_string ty)
                    (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* 11.8: a cast shall not remove const qualification. *)
let r11_8 =
  Rule.make ~id:"11.8" ~title:"no cast removing const" ~category:Rule.Required
    (fun ctx ->
      each_func ctx (fun fn ->
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Cpp_cast (Ast.Const_cast, _, _) ->
                acc :=
                  Rule.v ~rule_id:"11.8" ~loc:e.Ast.eloc "const_cast in %s"
                    (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* 11.9: the macro NULL / literal 0 shall not be used as a pointer
   constant — nullptr is required in C++11 style. *)
let r11_9 =
  Rule.make ~id:"11.9" ~title:"use nullptr for null pointer constants"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Id "NULL" ->
                acc :=
                  Rule.v ~rule_id:"11.9" ~loc:e.Ast.eloc "NULL macro in %s"
                    (Ast.qualified_name fn)
                  :: !acc
              | Ast.C_cast (ty, { e = Ast.Int_const 0L; _ }) when Ast.is_pointer_type ty ->
                acc :=
                  Rule.v ~rule_id:"11.9" ~loc:e.Ast.eloc "(T*)0 null constant in %s"
                    (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* 18.5: declarations shall contain at most two levels of pointer nesting. *)
let r18_5 =
  Rule.make ~id:"18.5" ~title:"at most two levels of pointer nesting"
    ~category:Rule.Advisory (fun ctx ->
      let depth ty =
        let rec go n = function
          | Ast.Tptr t -> go (n + 1) t
          | Ast.Tconst t -> go n t
          | _ -> n
        in
        go 0 ty
      in
      each_func ctx (fun fn ->
          let from_params =
            List.filter_map
              (fun (p : Ast.param) ->
                if depth p.Ast.p_type > 2 then
                  Some
                    (Rule.v ~rule_id:"18.5" ~loc:fn.Ast.f_loc
                       "parameter %s of %s has %d levels of pointers" p.Ast.p_name
                       (Ast.qualified_name fn) (depth p.Ast.p_type))
                else None)
              fn.Ast.f_params
          in
          let acc = ref [] in
          (match fn.Ast.f_body with
           | None -> ()
           | Some body ->
             Ast.iter_stmts
               (fun s ->
                 match s.Ast.s with
                 | Ast.Sdecl ds ->
                   List.iter
                     (fun (d : Ast.var_decl) ->
                       if depth d.Ast.v_type > 2 then
                         acc :=
                           Rule.v ~rule_id:"18.5" ~loc:d.Ast.v_loc
                             "local %s has %d levels of pointers" d.Ast.v_name
                             (depth d.Ast.v_type)
                           :: !acc)
                     ds
                 | _ -> ())
               body);
          from_params @ List.rev !acc))

(* 12.2: the right operand of a shift shall lie in the range 0..width-1. *)
let r12_2 =
  Rule.make ~id:"12.2" ~title:"shift amounts shall be in range"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Binary ((Ast.Shl | Ast.Shr), _, { e = Ast.Int_const n; _ })
                when n < 0L || n >= 32L ->
                acc :=
                  Rule.v ~rule_id:"12.2" ~loc:e.Ast.eloc
                    "shift by %Ld in %s" n (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* 2.2: no dead code.  Two complementary detectors:
   - an expression statement with no side effect (syntactic, as before);
   - a dead store: an assignment statement whose value is never read on
     any path (flow-sensitive: the assignment-kind dead stores of the
     dataflow layer's liveness facts).  This catches operations the syntactic scan
     calls effectful but whose outcome cannot influence the program —
     e.g. a store on one branch that every successor overwrites. *)
let r2_2 =
  Rule.make ~id:"2.2" ~title:"no dead code" ~category:Rule.Required (fun ctx ->
      List.concat_map
        (fun ((fn : Ast.func), (x : Dataflow.Analyses.func_facts)) ->
          match fn.Ast.f_body with
          | None -> []
          | Some body ->
            let acc = ref [] in
            let rec has_side_effect e =
              match e.Ast.e with
              | Ast.Assign _ | Ast.Call _ | Ast.Kernel_launch _ | Ast.New _
              | Ast.Delete _ | Ast.Throw _
              | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), _)
              | Ast.Postfix _ -> true
              | Ast.Unary (_, a) | Ast.C_cast (_, a) | Ast.Cpp_cast (_, _, a) ->
                has_side_effect a
              | Ast.Binary (_, a, b) | Ast.Index (a, b) ->
                has_side_effect a || has_side_effect b
              | Ast.Ternary (a, b, c) ->
                has_side_effect a || has_side_effect b || has_side_effect c
              | Ast.Member { obj; _ } -> has_side_effect obj
              | _ -> false
            in
            Ast.iter_stmts
              (fun s ->
                match s.Ast.s with
                | Ast.Sexpr e when not (has_side_effect e) ->
                  acc :=
                    Rule.v ~rule_id:"2.2" ~loc:s.Ast.sloc
                      "expression statement without side effect in %s"
                      (Ast.qualified_name fn)
                    :: !acc
                | _ -> ())
              body;
            let dead =
              List.filter_map
                (fun (d : Dataflow.Analyses.dead_store) ->
                  match d.Dataflow.Analyses.d_kind with
                  | Dataflow.Analyses.Sassign ->
                    Some
                      (Rule.v ~rule_id:"2.2" ~loc:d.Dataflow.Analyses.d_loc
                         "dead store to %s in %s" d.Dataflow.Analyses.d_var
                         (Ast.qualified_name fn))
                  | Dataflow.Analyses.Sdecl_init -> None)
                x.Dataflow.Analyses.x_dead_stores
            in
            List.rev_append !acc dead)
        (List.combine ctx.Rule.functions ctx.Rule.facts))

(* 13.x: side effects inside && / || operands. *)
let r13_5 =
  Rule.make ~id:"13.5" ~title:"no side effects in && / || operands"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          let acc = ref [] in
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
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Binary ((Ast.Land | Ast.Lor), _, rhs) when impure rhs ->
                acc :=
                  Rule.v ~rule_id:"13.5" ~loc:e.Ast.eloc
                    "side effect in short-circuit RHS in %s" (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* ---- rules_functions ---- *)
(* 17.1: the features of <stdarg.h> shall not be used. *)
let r17_1 =
  Rule.make ~id:"17.1" ~title:"no variadic functions" ~category:Rule.Required
    (fun ctx ->
      List.concat_map
        (fun (fn : Ast.func) ->
          let variadic =
            List.exists (fun p -> p.Ast.p_name = "...") fn.Ast.f_params
          in
          let uses_va =
            let found = ref false in
            Ast.iter_exprs_of_func
              (fun e ->
                match e.Ast.e with
                | Ast.Call ({ e = Ast.Id ("va_start" | "va_arg" | "va_end"); _ }, _) ->
                  found := true
                | _ -> ())
              fn;
            !found
          in
          if variadic || uses_va then
            [ Rule.v ~rule_id:"17.1" ~loc:fn.Ast.f_loc "variadic function %s"
                (Ast.qualified_name fn) ]
          else [])
        ctx.Rule.functions)

(* 17.7: the value returned by a non-void function shall be used. *)
let r17_7 =
  Rule.make ~id:"17.7" ~title:"return values shall be used" ~category:Rule.Required
    (fun ctx ->
      List.map
        (fun (caller, callee, loc) ->
          Rule.v ~rule_id:"17.7" ~loc "%s discards return value of %s" caller callee)
        (Census_reference.Defensive.ignored_returns ~funcs:ctx.Rule.functions ctx.Rule.functions))

(* 17.8: a function parameter should not be modified. *)
let r17_8 =
  Rule.make ~id:"17.8" ~title:"function parameters shall not be modified"
    ~category:Rule.Advisory (fun ctx ->
      each_func ctx (fun fn ->
          let params = List.map (fun p -> p.Ast.p_name) fn.Ast.f_params in
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Assign (_, { e = Ast.Id name; _ }, _)
              | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), { e = Ast.Id name; _ })
              | Ast.Postfix (_, { e = Ast.Id name; _ })
                when List.mem name params ->
                acc :=
                  Rule.v ~rule_id:"17.8" ~loc:e.Ast.eloc
                    "parameter %s modified in %s" name (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* 21.3: the memory allocation functions of <stdlib.h> shall not be used. *)
let r21_3 =
  Rule.make ~id:"21.3" ~title:"no dynamic heap allocation" ~category:Rule.Required
    (fun ctx ->
      List.map
        (fun (a : Metrics.Pointers.dyn_alloc) ->
          Rule.v ~rule_id:"21.3" ~loc:a.Metrics.Pointers.loc "%s used in %s"
            a.Metrics.Pointers.site a.Metrics.Pointers.in_function)
        (Census_reference.Pointers.dyn_allocs_of_functions ctx.Rule.functions))

(* 21.6: the standard I/O functions shall not be used. *)
let r21_6 =
  Rule.make ~id:"21.6" ~title:"no standard I/O in production code"
    ~category:Rule.Required (fun ctx ->
      let stdio = [ "printf"; "fprintf"; "sprintf"; "scanf"; "fscanf"; "gets"; "puts" ] in
      each_func ctx (fun fn ->
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Call ({ e = Ast.Id name; _ }, _) when List.mem name stdio ->
                acc :=
                  Rule.v ~rule_id:"21.6" ~loc:e.Ast.eloc "%s called in %s" name
                    (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* 21.8: the termination functions of <stdlib.h> shall not be used. *)
let r21_8 =
  Rule.make ~id:"21.8" ~title:"no abort/exit/system" ~category:Rule.Required
    (fun ctx ->
      let banned = [ "abort"; "exit"; "_Exit"; "quick_exit"; "system" ] in
      each_func ctx (fun fn ->
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Call ({ e = Ast.Id name; _ }, _) when List.mem name banned ->
                acc :=
                  Rule.v ~rule_id:"21.8" ~loc:e.Ast.eloc "%s called in %s" name
                    (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* 2.7: there should be no unused parameters. *)
let r2_7 =
  Rule.make ~id:"2.7" ~title:"no unused parameters" ~category:Rule.Advisory
    (fun ctx ->
      each_func ctx (fun fn ->
          match fn.Ast.f_body with
          | None -> []
          | Some _ ->
            let used = Hashtbl.create 8 in
            Ast.iter_exprs_of_func
              (fun e ->
                match e.Ast.e with
                | Ast.Id name -> Hashtbl.replace used name ()
                | _ -> ())
              fn;
            List.filter_map
              (fun (p : Ast.param) ->
                if p.Ast.p_name <> "" && p.Ast.p_name <> "..."
                   && not (Hashtbl.mem used p.Ast.p_name)
                then
                  Some
                    (Rule.v ~rule_id:"2.7" ~loc:fn.Ast.f_loc
                       "unused parameter %s in %s" p.Ast.p_name
                       (Ast.qualified_name fn))
                else None)
              fn.Ast.f_params))

(* ---- rules_extended ---- *)

(* Raw callee names mentioned in a function body, in source order, as
   [Callgraph.calls_in_body] gave them. *)
let calls_in_body (fn : Ast.func) =
  let acc = ref [] in
  Ast.iter_exprs_of_func
    (fun e ->
      match e.Ast.e with
      | Ast.Call ({ e = Ast.Id name; _ }, _) -> acc := name :: !acc
      | Ast.Kernel_launch { kernel = { e = Ast.Id name; _ }; _ } -> acc := name :: !acc
      | Ast.Call ({ e = Ast.Member { field; _ }; _ }, _) -> acc := field :: !acc
      | _ -> ())
    fn;
  List.rev !acc

(* 14.4: the controlling expression of if/while shall have essentially
   boolean type.  [if (n)] with an arithmetic n is flagged; comparisons,
   logical operators and bool-typed expressions pass. *)
let r14_4 =
  Rule.make ~id:"14.4" ~title:"controlling expressions shall be boolean"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          match fn.Ast.f_body with
          | None -> []
          | Some body ->
            let env = Metrics.Casts.env_of_func fn in
            let acc = ref [] in
            let boolish (e : Ast.expr) =
              match e.Ast.e with
              | Ast.Binary ((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne
                            | Ast.Land | Ast.Lor), _, _)
              | Ast.Unary (Ast.Lnot, _)
              | Ast.Bool_const _ -> true
              | _ -> Metrics.Casts.infer env e = Metrics.Casts.Kbool
            in
            Ast.iter_stmts
              (fun s ->
                let flag loc =
                  acc :=
                    Rule.v ~rule_id:"14.4" ~loc
                      "non-boolean controlling expression in %s"
                      (Ast.qualified_name fn)
                    :: !acc
                in
                match s.Ast.s with
                | Ast.Sif { cond; _ } when not (boolish cond) -> flag s.Ast.sloc
                | Ast.Swhile (c, _) when not (boolish c) -> flag s.Ast.sloc
                | Ast.Sdo_while (_, c) when not (boolish c) -> (
                    (* tolerate the do-while-zero idiom *)
                    match c.Ast.e with
                    | Ast.Int_const 0L -> ()
                    | _ -> flag s.Ast.sloc)
                | _ -> ())
              body;
            List.rev !acc))

(* 16.2: a case label shall only appear directly within the switch body. *)
let r16_2 =
  Rule.make ~id:"16.2" ~title:"case labels only at the top level of a switch"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          match fn.Ast.f_body with
          | None -> []
          | Some body ->
            let acc = ref [] in
            (* walk: any Scase/Sdefault reached through a non-switch
               compound inside a switch body is nested *)
            let rec walk ~depth_in_switch (s : Ast.stmt) =
              match s.Ast.s with
              | Ast.Sswitch (_, sw_body) -> (
                  match sw_body.Ast.s with
                  | Ast.Sblock ss ->
                    List.iter
                      (fun t ->
                        match t.Ast.s with
                        | Ast.Scase _ | Ast.Sdefault -> ()
                        | _ -> walk ~depth_in_switch:true t)
                      ss
                  | _ -> walk ~depth_in_switch:true sw_body)
              | Ast.Scase _ | Ast.Sdefault when depth_in_switch ->
                acc :=
                  Rule.v ~rule_id:"16.2" ~loc:s.Ast.sloc
                    "nested case label in %s" (Ast.qualified_name fn)
                  :: !acc
              | Ast.Sblock ss -> List.iter (walk ~depth_in_switch) ss
              | Ast.Sif { then_; else_; _ } ->
                walk ~depth_in_switch then_;
                Option.iter (walk ~depth_in_switch) else_
              | Ast.Swhile (_, b) | Ast.Sdo_while (b, _) | Ast.Sfor { body = b; _ }
              | Ast.Slabel (_, b) ->
                walk ~depth_in_switch b
              | Ast.Stry { body = b; catches } ->
                walk ~depth_in_switch b;
                List.iter (fun (_, h) -> walk ~depth_in_switch h) catches
              | _ -> ()
            in
            walk ~depth_in_switch:false body;
            List.rev !acc))

(* 16.5: a default label shall appear as the first or the last switch
   clause. *)
let r16_5 =
  Rule.make ~id:"16.5" ~title:"default shall be first or last switch clause"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          match fn.Ast.f_body with
          | None -> []
          | Some body ->
            let acc = ref [] in
            Ast.iter_stmts
              (fun s ->
                match s.Ast.s with
                | Ast.Sswitch (_, { s = Ast.Sblock stmts; _ }) ->
                  let labels =
                    List.filter_map
                      (fun t ->
                        match t.Ast.s with
                        | Ast.Scase _ -> Some (`Case, t.Ast.sloc)
                        | Ast.Sdefault -> Some (`Default, t.Ast.sloc)
                        | _ -> None)
                      stmts
                  in
                  (match labels with
                   | [] -> ()
                   | _ ->
                     List.iteri
                       (fun i (kind, loc) ->
                         if kind = `Default && i <> 0 && i <> List.length labels - 1
                         then
                           acc :=
                             Rule.v ~rule_id:"16.5" ~loc
                               "default label in the middle of a switch in %s"
                               (Ast.qualified_name fn)
                             :: !acc)
                       labels)
                | _ -> ())
              body;
            List.rev !acc))

(* 16.7: the switch expression shall not be essentially boolean. *)
let r16_7 =
  Rule.make ~id:"16.7" ~title:"switch expression shall not be boolean"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          match fn.Ast.f_body with
          | None -> []
          | Some body ->
            let acc = ref [] in
            Ast.iter_stmts
              (fun s ->
                match s.Ast.s with
                | Ast.Sswitch (e, _) -> (
                    match e.Ast.e with
                    | Ast.Binary ((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne
                                  | Ast.Land | Ast.Lor), _, _)
                    | Ast.Unary (Ast.Lnot, _)
                    | Ast.Bool_const _ ->
                      acc :=
                        Rule.v ~rule_id:"16.7" ~loc:s.Ast.sloc
                          "boolean switch expression in %s" (Ast.qualified_name fn)
                        :: !acc
                    | _ -> ())
                | _ -> ())
              body;
            List.rev !acc))

(* 18.4: the +, -, += and -= operators shall not be applied to pointer
   operands. *)
let r18_4 =
  Rule.make ~id:"18.4" ~title:"no pointer arithmetic with +/-"
    ~category:Rule.Advisory (fun ctx ->
      each_func ctx (fun fn ->
          let env = Metrics.Casts.env_of_func fn in
          let acc = ref [] in
          let is_ptr e = Metrics.Casts.infer env e = Metrics.Casts.Kptr in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Binary ((Ast.Add | Ast.Sub), a, b) when is_ptr a || is_ptr b -> (
                  (* string literals and null are not flagged *)
                  match (a.Ast.e, b.Ast.e) with
                  | (Ast.Str_const _ | Ast.Nullptr), _ | _, (Ast.Str_const _ | Ast.Nullptr) -> ()
                  | _ ->
                    acc :=
                      Rule.v ~rule_id:"18.4" ~loc:e.Ast.eloc
                        "pointer arithmetic in %s" (Ast.qualified_name fn)
                      :: !acc)
              | Ast.Assign ((Ast.A_add | Ast.A_sub), lhs, _) when is_ptr lhs ->
                acc :=
                  Rule.v ~rule_id:"18.4" ~loc:e.Ast.eloc
                    "pointer compound assignment in %s" (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* 21.7 / 21.9 / 21.10: banned stdlib families. *)
let banned_call ~rule_id ~title ~names =
  Rule.make ~id:rule_id ~title ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Call ({ e = Ast.Id name; _ }, _) when List.mem name names ->
                acc :=
                  Rule.v ~rule_id ~loc:e.Ast.eloc "%s called in %s" name
                    (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

let r21_7 =
  banned_call ~rule_id:"21.7" ~title:"atof/atoi/atol shall not be used"
    ~names:[ "atof"; "atoi"; "atol"; "atoll" ]

let r21_9 =
  banned_call ~rule_id:"21.9" ~title:"bsearch and qsort shall not be used"
    ~names:[ "bsearch"; "qsort" ]

let r21_10 =
  banned_call ~rule_id:"21.10" ~title:"date/time library shall not be used"
    ~names:[ "time"; "clock"; "gettimeofday"; "localtime"; "mktime" ]

(* ---- rules_wave3 ---- *)
(* 10.4: both operands of an arithmetic operator shall have the same
   essential type category (no silent int/float mixing). *)
let r10_4 =
  Rule.make ~id:"10.4" ~title:"no mixed essential types in arithmetic"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          let env = Metrics.Casts.env_of_func fn in
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Binary ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), a, b) -> (
                  match (Metrics.Casts.infer env a, Metrics.Casts.infer env b) with
                  | Metrics.Casts.Kint, Metrics.Casts.Kfloat
                  | Metrics.Casts.Kfloat, Metrics.Casts.Kint ->
                    acc :=
                      Rule.v ~rule_id:"10.4" ~loc:e.Ast.eloc
                        "int/float operands mixed in %s" (Ast.qualified_name fn)
                      :: !acc
                  | _ -> ())
              | _ -> ())
            fn;
          List.rev !acc))

(* 13.3: a full expression containing ++ or -- should have no other
   potential side effects. *)
let r13_3 =
  Rule.make ~id:"13.3" ~title:"++/-- shall be the only side effect"
    ~category:Rule.Advisory (fun ctx ->
      each_func ctx (fun fn ->
          match fn.Ast.f_body with
          | None -> []
          | Some body ->
            let acc = ref [] in
            let count_effects e =
              let incdec = ref 0 and others = ref 0 in
              Ast.iter_exprs_of_expr
                (fun x ->
                  match x.Ast.e with
                  | Ast.Postfix _ | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), _) ->
                    incr incdec
                  | Ast.Assign _ | Ast.Call _ | Ast.Kernel_launch _ | Ast.New _
                  | Ast.Delete _ ->
                    incr others
                  | _ -> ())
                e;
              (!incdec, !others)
            in
            Ast.iter_stmts
              (fun s ->
                match s.Ast.s with
                | Ast.Sexpr e ->
                  let incdec, others = count_effects e in
                  if incdec > 0 && (others > 0 || incdec > 1) then
                    acc :=
                      Rule.v ~rule_id:"13.3" ~loc:s.Ast.sloc
                        "increment mixed with other side effects in %s"
                        (Ast.qualified_name fn)
                      :: !acc
                | _ -> ())
              body;
            List.rev !acc))

(* 13.6: the operand of sizeof shall have no side effects. *)
let r13_6 =
  Rule.make ~id:"13.6" ~title:"sizeof operand shall be side-effect free"
    ~category:Rule.Mandatory (fun ctx ->
      each_func ctx (fun fn ->
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Sizeof_expr inner ->
                let impure = ref false in
                Ast.iter_exprs_of_expr
                  (fun x ->
                    match x.Ast.e with
                    | Ast.Assign _ | Ast.Call _ | Ast.Postfix _
                    | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), _) ->
                      impure := true
                    | _ -> ())
                  inner;
                if !impure then
                  acc :=
                    Rule.v ~rule_id:"13.6" ~loc:e.Ast.eloc
                      "side effect inside sizeof in %s" (Ast.qualified_name fn)
                    :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* 18.6: the address of an object with automatic storage shall not escape
   its lifetime — the detectable core: returning &local. *)
let r18_6 =
  Rule.make ~id:"18.6" ~title:"no escaping addresses of locals"
    ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          match fn.Ast.f_body with
          | None -> []
          | Some body ->
            let locals = Hashtbl.create 8 in
            Ast.iter_stmts
              (fun s ->
                match s.Ast.s with
                | Ast.Sdecl ds | Ast.Sfor { init = Ast.Fi_decl ds; _ } ->
                  List.iter
                    (fun (d : Ast.var_decl) -> Hashtbl.replace locals d.Ast.v_name ())
                    ds
                | _ -> ())
              body;
            let acc = ref [] in
            Ast.iter_stmts
              (fun s ->
                match s.Ast.s with
                | Ast.Sreturn (Some { e = Ast.Unary (Ast.Addr_of, { e = Ast.Id name; _ }); _ })
                  when Hashtbl.mem locals name ->
                  acc :=
                    Rule.v ~rule_id:"18.6" ~loc:s.Ast.sloc
                      "address of local %s returned from %s" name
                      (Ast.qualified_name fn)
                    :: !acc
                | _ -> ())
              body;
            List.rev !acc))

let banned ~rule_id ~title names =
  Rule.make ~id:rule_id ~title ~category:Rule.Required (fun ctx ->
      each_func ctx (fun fn ->
          let acc = ref [] in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Call ({ e = Ast.Id name; _ }, _) when List.mem name names ->
                acc :=
                  Rule.v ~rule_id ~loc:e.Ast.eloc "%s called in %s" name
                    (Ast.qualified_name fn)
                  :: !acc
              | _ -> ())
            fn;
          List.rev !acc))

(* 21.4: setjmp/longjmp shall not be used. *)
let r21_4 =
  banned ~rule_id:"21.4" ~title:"setjmp/longjmp shall not be used"
    [ "setjmp"; "longjmp"; "sigsetjmp"; "siglongjmp" ]

(* 21.5: the signal-handling facilities shall not be used. *)
let r21_5 =
  banned ~rule_id:"21.5" ~title:"signal handling shall not be used"
    [ "signal"; "sigaction"; "raise"; "kill" ]

(* ---- rules_cuda ---- *)
let is_kernel (fn : Ast.func) = List.mem Ast.Q_global fn.Ast.f_quals

let kernels ctx = List.filter is_kernel ctx.Rule.functions

(* CUDA-1: a kernel that derives an index from threadIdx/blockIdx shall
   guard global-memory accesses with a bound check. *)
let cuda_1 =
  Rule.make ~id:"CUDA-1" ~title:"kernels shall bound-check thread indices"
    ~category:Rule.Required (fun ctx ->
      List.filter_map
        (fun fn ->
          let uses_thread_idx = ref false in
          let has_guard = ref false in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Member { obj = { e = Ast.Id ("threadIdx" | "blockIdx"); _ }; _ } ->
                uses_thread_idx := true
              | _ -> ())
            fn;
          (match fn.Ast.f_body with
           | None -> ()
           | Some body ->
             Ast.iter_stmts
               (fun s ->
                 match s.Ast.s with
                 | Ast.Sif { cond; _ } ->
                   (* any comparison in an if counts as a guard *)
                   Ast.iter_exprs_of_expr
                     (fun e ->
                       match e.Ast.e with
                       | Ast.Binary ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _) ->
                         has_guard := true
                       | _ -> ())
                     cond
                 | _ -> ())
               body);
          if !uses_thread_idx && not !has_guard then
            Some
              (Rule.v ~rule_id:"CUDA-1" ~loc:fn.Ast.f_loc
                 "kernel %s indexes by thread id without a bound check"
                 (Ast.qualified_name fn))
          else None)
        (kernels ctx))

(* CUDA-4: kernel launches shall check for errors (a cudaGetLastError or
   cudaDeviceSynchronize call shall follow a launch in the same function). *)
let cuda_4 =
  Rule.make ~id:"CUDA-4" ~title:"kernel launches shall be error-checked"
    ~category:Rule.Required (fun ctx ->
      List.filter_map
        (fun (fn : Ast.func) ->
          let has_launch = ref false in
          let has_check = ref false in
          Ast.iter_exprs_of_func
            (fun e ->
              match e.Ast.e with
              | Ast.Kernel_launch _ -> has_launch := true
              | Ast.Call ({ e = Ast.Id ("cudaGetLastError" | "cudaDeviceSynchronize"
                                       | "cudaPeekAtLastError"); _ }, _) ->
                has_check := true
              | _ -> ())
            fn;
          if !has_launch && not !has_check then
            Some
              (Rule.v ~rule_id:"CUDA-4" ~loc:fn.Ast.f_loc
                 "%s launches kernels without error checking" (Ast.qualified_name fn))
          else None)
        ctx.Rule.functions)

(* ---- rules_preproc ---- *)
(* Dir 4.4: sections of code should not be commented out — approximated by
   comment lines that end with ';' or contain '=' and parse as statements
   (text heuristic: a comment line with a trailing semicolon). *)
let d4_4 =
  Rule.make ~id:"D4.4" ~title:"no commented-out code" ~category:Rule.Advisory
    ~decidable:false (fun ctx ->
      List.concat_map
        (fun pf ->
          let lines = Util.Strutil.lines (Project.tu pf).Ast.raw_source in
          List.concat
            (List.mapi
               (fun i line ->
                 let t = Util.Strutil.strip line in
                 if Util.Strutil.starts_with ~prefix:"//" t
                    && Util.Strutil.ends_with ~suffix:";" t
                 then
                   [ Rule.v ~rule_id:"D4.4"
                       ~loc:(Loc.make ~file:(Project.tu pf).Ast.tu_file ~line:(i + 1) ~col:1)
                       "commented-out statement" ]
                 else [])
               lines))
        ctx.Rule.files)

(* ---- recursion and the cudaMalloc census ---- *)
let is_device (fn : Ast.func) =
  List.mem Ast.Q_global fn.Ast.f_quals || List.mem Ast.Q_device fn.Ast.f_quals

let device_fns ctx = List.filter is_device ctx.Rule.functions

(* 17.2: functions shall not call themselves, directly or indirectly. *)
let r17_2 =
  Rule.make ~id:"17.2" ~title:"no recursion" ~category:Rule.Required (fun ctx ->
      let graph = ctx.Rule.interproc.Interproc.Summary.graph in
      let recursive = Callgraph.recursive_functions graph in
      let cycles = Callgraph.recursion_cycles graph in
      let cycle_of q = List.find_opt (fun c -> List.mem q c) cycles in
      let witness q =
        match cycle_of q with
        | Some [ _ ] | None -> "calls itself"
        | Some cycle ->
          Printf.sprintf "cycle: %s -> %s" (String.concat " -> " cycle)
            (List.hd cycle)
      in
      List.filter_map
        (fun (fn : Ast.func) ->
          let q = Ast.qualified_name fn in
          if List.mem q recursive then
            let steps =
              match cycle_of q with
              | Some (_ :: _ :: _ as cycle) ->
                List.mapi
                  (fun i callee ->
                    Provenance.step "call" "%s calls %s"
                      (List.nth cycle i) callee)
                  (List.tl cycle @ [ List.hd cycle ])
              | _ -> [ Provenance.step "call" "%s calls itself directly" q ]
            in
            Some
              (Rule.v ~witness:steps ~rule_id:"17.2" ~loc:fn.Ast.f_loc
                 "%s is recursive (%s)" q (witness q))
          else None)
        ctx.Rule.functions)

(* CUDA-3: every cudaMalloc shall have a matching cudaFree in the same
   translation unit. *)
let cuda_3 =
  Rule.make ~id:"CUDA-3" ~title:"cudaMalloc shall pair with cudaFree"
    ~category:Rule.Required (fun ctx ->
      List.concat_map
        (fun pf ->
          let fns =
            List.filter
              (fun (f : Ast.func) -> f.Ast.f_body <> None)
              (Ast.functions_of_tu (Project.tu pf))
          in
          let count name =
            let n = ref 0 in
            List.iter
              (fun fn ->
                Ast.iter_exprs_of_func
                  (fun e ->
                    match e.Ast.e with
                    | Ast.Call ({ e = Ast.Id callee; _ }, _) when callee = name -> incr n
                    | _ -> ())
                  fn)
              fns;
            !n
          in
          let mallocs = count "cudaMalloc" in
          let frees = count "cudaFree" in
          if mallocs > frees then
            [ Rule.v ~rule_id:"CUDA-3"
                ~loc:(Loc.make ~file:(Project.tu pf).Ast.tu_file ~line:1 ~col:1)
                "%d cudaMalloc vs %d cudaFree in %s" mallocs frees
                (Project.tu pf).Ast.tu_file ]
          else [])
        ctx.Rule.files)

(* CUDA-5: device functions shall not be recursive (stack depth on GPU is
   severely limited and unanalyzable). *)
let cuda_5 =
  Rule.make ~id:"CUDA-5" ~title:"no recursion in device code"
    ~category:Rule.Mandatory (fun ctx ->
      let recursive =
        Callgraph.recursive_functions ctx.Rule.interproc.Interproc.Summary.graph
      in
      List.filter_map
        (fun fn ->
          let q = Ast.qualified_name fn in
          if List.mem q recursive then
            Some (Rule.v ~rule_id:"CUDA-5" ~loc:fn.Ast.f_loc "device function %s is recursive" q)
          else None)
        (device_fns ctx))

(* 8.7: functions referenced in only one translation unit should be
   static.  As it stood while it walked every function of every file for
   its callee names. *)
let r8_7 =
  Rule.make ~id:"8.7" ~title:"single-unit functions should be static"
    ~category:Rule.Advisory (fun ctx ->
      (* map: qualified function -> defining file; caller file sets *)
      let def_file = Hashtbl.create 128 in
      List.iter
        (fun pf ->
          List.iter
            (fun (fn : Ast.func) ->
              if fn.Ast.f_body <> None then
                Hashtbl.replace def_file (Ast.qualified_name fn)
                  (Project.tu pf).Ast.tu_file)
            (Ast.functions_of_tu (Project.tu pf)))
        ctx.Rule.files;
      let callers = Hashtbl.create 128 in
      List.iter
        (fun pf ->
          List.iter
            (fun (fn : Ast.func) ->
              List.iter
                (fun callee ->
                  let cur = Option.value ~default:[] (Hashtbl.find_opt callers callee) in
                  let f = (Project.tu pf).Ast.tu_file in
                  if not (List.mem f cur) then Hashtbl.replace callers callee (f :: cur))
                (calls_in_body fn))
            (Ast.functions_of_tu (Project.tu pf)))
        ctx.Rule.files;
      List.filter_map
        (fun (fn : Ast.func) ->
          let q = Ast.qualified_name fn in
          let simple = fn.Ast.f_name in
          if List.mem Ast.Q_static fn.Ast.f_quals || fn.Ast.f_name = "main" then None
          else
            match (Hashtbl.find_opt def_file q, Hashtbl.find_opt callers simple) with
            | Some df, Some [ only_caller ] when only_caller = df ->
              Some
                (Rule.v ~rule_id:"8.7" ~loc:fn.Ast.f_loc
                   "%s is only referenced inside %s and should be static" q df)
            | _ -> None)
        ctx.Rule.functions)

let all =
  [ r15_1; r15_2; r15_4; r15_5; r15_6; r15_7; r16_4; r16_6; r16_3; r14_3; r14_1; r13_4;
    r12_3; r10_3; r11_3; r11_8; r11_9; r18_5; r12_2; r2_2; r13_5; r17_1; r17_7; r17_8;
    r21_3; r21_6; r21_8; r2_7; r14_4; r16_2; r16_5; r16_7; r18_4; r21_7; r21_9; r21_10;
    r10_4; r13_3; r13_6; r18_6; r21_4; r21_5; cuda_1; cuda_4; d4_4; r17_2; cuda_3;
    cuda_5; r8_7 ]
