(** Second wave of MISRA C:2012 rules: essential-type rules, switch
    topology, exit-path completeness, pointer arithmetic, and banned
    library functions. *)

open Cfront

let each_func (ctx : Rule.context) f = List.concat_map f ctx.Rule.functions

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

(* 17.4: all exit paths of a non-void function shall return a value —
   approximated: the function body may fall off the end. *)
let r17_4 =
  Rule.make ~id:"17.4" ~title:"non-void functions shall return on every path"
    ~category:Rule.Mandatory (fun ctx ->
      List.filter_map
        (fun (fn : Ast.func) ->
          match (fn.Ast.f_ret, fn.Ast.f_body) with
          | Ast.Tvoid, _ | _, None -> None
          | _, Some body ->
            (* conservative: the last statement must guarantee a return *)
            let rec guarantees_return (s : Ast.stmt) =
              match s.Ast.s with
              | Ast.Sreturn _ | Ast.Sgoto _ -> true
              | Ast.Sblock ss -> (
                  match List.rev ss with
                  | last :: _ -> guarantees_return last
                  | [] -> false)
              | Ast.Sif { then_; else_ = Some e; _ } ->
                guarantees_return then_ && guarantees_return e
              | Ast.Sswitch (_, sw_body) ->
                (* every clause returning is possible but rare; treat a
                   switch whose every clause ends in return as returning *)
                let all_return = ref true in
                let has_default = ref false in
                (match sw_body.Ast.s with
                 | Ast.Sblock ss ->
                   let current_returns = ref false in
                   let saw_clause = ref false in
                   List.iter
                     (fun t ->
                       match t.Ast.s with
                       | Ast.Scase _ | Ast.Sdefault ->
                         if !saw_clause && not !current_returns then all_return := false;
                         saw_clause := true;
                         current_returns := false;
                         if t.Ast.s = Ast.Sdefault then has_default := true
                       | Ast.Sreturn _ -> current_returns := true
                       | _ -> ())
                     ss;
                   if !saw_clause && not !current_returns then all_return := false
                 | _ -> all_return := false);
                !all_return && !has_default
              | Ast.Slabel (_, inner) -> guarantees_return inner
              | Ast.Stry { body; catches } ->
                guarantees_return body
                && List.for_all (fun (_, h) -> guarantees_return h) catches
              | _ -> false
            in
            if guarantees_return body then None
            else
              Some
                (Rule.v ~rule_id:"17.4" ~loc:fn.Ast.f_loc
                   "%s may fall off the end without returning a value"
                   (Ast.qualified_name fn)))
        ctx.Rule.functions)

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

(* 8.2: function parameters shall be named in definitions. *)
let r8_2 =
  Rule.make ~id:"8.2" ~title:"function parameters shall be named"
    ~category:Rule.Required (fun ctx ->
      List.concat_map
        (fun (fn : Ast.func) ->
          List.filter_map
            (fun (p : Ast.param) ->
              if p.Ast.p_name = "" then
                Some
                  (Rule.v ~rule_id:"8.2" ~loc:fn.Ast.f_loc
                     "unnamed parameter of type %s in %s"
                     (Ast.type_to_string p.Ast.p_type) (Ast.qualified_name fn))
              else None)
            fn.Ast.f_params)
        ctx.Rule.functions)

(* 8.7: functions referenced in only one translation unit should be
   static. *)
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
                (Callgraph.calls_in_body fn))
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

let all = [ r8_2; r8_7; r14_4; r16_2; r16_5; r16_7; r17_4; r18_4; r21_7; r21_9; r21_10 ]
