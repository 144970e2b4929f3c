(** Second wave of MISRA C:2012 rules: essential-type rules, switch
    topology, exit-path completeness, pointer arithmetic, and banned
    library functions. *)

open Cfront

(* 14.4: the controlling expression of if/while shall have essentially
   boolean type.  [if (n)] with an arithmetic n is flagged; comparisons,
   logical operators and bool-typed expressions pass. *)
let r14_4 =
  let boolish info (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Binary ((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne | Ast.Land
                  | Ast.Lor), _, _)
    | Ast.Unary (Ast.Lnot, _)
    | Ast.Bool_const _ -> true
    | _ -> Metrics.Casts.infer (Rule.env info) e = Metrics.Casts.Kbool
  in
  Rule.visitor ~id:"14.4" ~title:"controlling expressions shall be boolean"
    ~category:Rule.Required
    (Rule.collecting ~stmts:[ `Sif; `Swhile; `Sdo_while ]
       ~stmt:(fun a s ->
         let flag loc =
           Rule.emit a
             (Rule.v ~rule_id:"14.4" ~loc "non-boolean controlling expression in %s"
                (Rule.name a.Rule.info))
         in
         match s.Ast.s with
         | Ast.Sif { cond; _ } when not (boolish a.Rule.info cond) -> flag s.Ast.sloc
         | Ast.Swhile (c, _) when not (boolish a.Rule.info c) -> flag s.Ast.sloc
         | Ast.Sdo_while (_, c) when not (boolish a.Rule.info c) -> (
             (* tolerate the do-while-zero idiom *)
             match c.Ast.e with Ast.Int_const 0L -> () | _ -> flag s.Ast.sloc)
         | _ -> ())
       ())

(* 16.2: a case label shall only appear directly within the switch body.
   A case or default label is nested when its nearest enclosing switch
   has it somewhere other than at the top level of a compound body.  A
   switch marks the labels of its own region that are nested (its
   region stops at inner switches, which mark their own), and the
   labels are reported as the walk reaches them. *)
type cases = { c_found : Rule.found; nested : (int, unit) Hashtbl.t  (** by [sid] *) }

let r16_2 =
  let rec mark nested (s : Ast.stmt) =
    match s.Ast.s with
    | Ast.Sswitch _ -> ()
    | Ast.Scase _ | Ast.Sdefault -> Hashtbl.replace nested s.Ast.sid ()
    | Ast.Sblock ss -> List.iter (mark nested) ss
    | Ast.Sif { then_; else_; _ } ->
      mark nested then_;
      Option.iter (mark nested) else_
    | Ast.Swhile (_, b) | Ast.Sdo_while (b, _) | Ast.Sfor { body = b; _ } | Ast.Slabel (_, b) ->
      mark nested b
    | Ast.Stry { body = b; catches } ->
      mark nested b;
      List.iter (fun (_, h) -> mark nested h) catches
    | _ -> ()
  in
  Rule.visitor ~id:"16.2" ~title:"case labels only at the top level of a switch"
    ~category:Rule.Required
    (Rule.Visit
       { stmts = [ `Sswitch; `Scase; `Sdefault ];
         exprs = [];
         start = (fun info -> { c_found = { Rule.info; found = [] }; nested = Hashtbl.create 4 });
         stmt =
           (fun c s ->
             match s.Ast.s with
             | Ast.Sswitch (_, { s = Ast.Sblock ss; _ }) ->
               List.iter
                 (fun t ->
                   match t.Ast.s with
                   | Ast.Scase _ | Ast.Sdefault -> ()
                   | _ -> mark c.nested t)
                 ss
             | Ast.Sswitch (_, sw_body) -> mark c.nested sw_body
             | _ ->
               if Hashtbl.mem c.nested s.Ast.sid then
                 Rule.emit c.c_found
                   (Rule.v ~rule_id:"16.2" ~loc:s.Ast.sloc "nested case label in %s"
                      (Rule.name c.c_found.Rule.info)));
         expr = (fun _ _ -> ());
         finish = (fun c -> List.rev c.c_found.Rule.found) })

(* 16.5: a default label shall appear as the first or the last switch
   clause. *)
let r16_5 =
  Rule.visitor ~id:"16.5" ~title:"default shall be first or last switch clause"
    ~category:Rule.Required
    (Rule.collecting ~stmts:[ `Sswitch ]
       ~stmt:(fun a s ->
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
           let last = List.length labels - 1 in
           List.iteri
             (fun i (kind, loc) ->
               if kind = `Default && i <> 0 && i <> last then
                 Rule.emit a
                   (Rule.v ~rule_id:"16.5" ~loc
                      "default label in the middle of a switch in %s"
                      (Rule.name a.Rule.info)))
             labels
         | _ -> ())
       ())

(* 16.7: the switch expression shall not be essentially boolean. *)
let r16_7 =
  Rule.visitor ~id:"16.7" ~title:"switch expression shall not be boolean"
    ~category:Rule.Required
    (Rule.collecting ~stmts:[ `Sswitch ]
       ~stmt:(fun a s ->
         match s.Ast.s with
         | Ast.Sswitch (e, _) -> (
             match e.Ast.e with
             | Ast.Binary ((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne
                           | Ast.Land | Ast.Lor), _, _)
             | Ast.Unary (Ast.Lnot, _)
             | Ast.Bool_const _ ->
               Rule.emit a
                 (Rule.v ~rule_id:"16.7" ~loc:s.Ast.sloc "boolean switch expression in %s"
                    (Rule.name a.Rule.info))
             | _ -> ())
         | _ -> ())
       ())

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
  let is_ptr info e = Metrics.Casts.infer (Rule.env info) e = Metrics.Casts.Kptr in
  Rule.visitor ~id:"18.4" ~title:"no pointer arithmetic with +/-"
    ~category:Rule.Advisory
    (Rule.collecting ~exprs:[ `Binary; `Assign ]
       ~expr:(fun a e ->
         match e.Ast.e with
         | Ast.Binary ((Ast.Add | Ast.Sub), x, y)
           when is_ptr a.Rule.info x || is_ptr a.Rule.info y -> (
             (* string literals and null are not flagged *)
             match (x.Ast.e, y.Ast.e) with
             | (Ast.Str_const _ | Ast.Nullptr), _ | _, (Ast.Str_const _ | Ast.Nullptr) -> ()
             | _ ->
               Rule.emit a
                 (Rule.v ~rule_id:"18.4" ~loc:e.Ast.eloc "pointer arithmetic in %s"
                    (Rule.name a.Rule.info)))
         | Ast.Assign ((Ast.A_add | Ast.A_sub), lhs, _) when is_ptr a.Rule.info lhs ->
           Rule.emit a
             (Rule.v ~rule_id:"18.4" ~loc:e.Ast.eloc "pointer compound assignment in %s"
                (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 21.7 / 21.9 / 21.10: banned stdlib families. *)
let r21_7 =
  Rules_functions.banned_call ~rule_id:"21.7" ~title:"atof/atoi/atol shall not be used"
    [ "atof"; "atoi"; "atol"; "atoll" ]

let r21_9 =
  Rules_functions.banned_call ~rule_id:"21.9" ~title:"bsearch and qsort shall not be used"
    [ "bsearch"; "qsort" ]

let r21_10 =
  Rules_functions.banned_call ~rule_id:"21.10" ~title:"date/time library shall not be used"
    [ "time"; "clock"; "gettimeofday"; "localtime"; "mktime" ]

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
   static.  A function's references are the named call sites of the
   interproc call graph (direct, method and kernel calls, by the callee
   name as written), each in the unit of the call. *)
let r8_7 =
  Rule.make ~id:"8.7" ~title:"single-unit functions should be static"
    ~category:Rule.Advisory (fun ctx ->
      (* map: qualified function -> defining file *)
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
      (* callee name -> [Some f] while every call is in file [f], [None]
         once calls come from two files *)
      let caller_file = Hashtbl.create 1024 in
      List.iter
        (fun (s : Callgraph.call_site) ->
          match s.Callgraph.cs_outcome with
          | Callgraph.Indirect_call -> ()
          | _ -> (
            let f = s.Callgraph.cs_loc.Loc.file in
            match Hashtbl.find_opt caller_file s.Callgraph.cs_name with
            | None -> Hashtbl.replace caller_file s.Callgraph.cs_name (Some f)
            | Some (Some g) when g <> f -> Hashtbl.replace caller_file s.Callgraph.cs_name None
            | Some _ -> ()))
        ctx.Rule.interproc.Interproc.Summary.graph.Callgraph.sites;
      List.filter_map
        (fun (fn : Ast.func) ->
          let q = Ast.qualified_name fn in
          if List.mem Ast.Q_static fn.Ast.f_quals || fn.Ast.f_name = "main" then None
          else
            match (Hashtbl.find_opt def_file q, Hashtbl.find_opt caller_file fn.Ast.f_name) with
            | Some df, Some (Some only_caller) when only_caller = df ->
              Some
                (Rule.v ~rule_id:"8.7" ~loc:fn.Ast.f_loc
                   "%s is only referenced inside %s and should be static" q df)
            | _ -> None)
        ctx.Rule.functions)

let all = [ r8_2; r8_7; r14_4; r16_2; r16_5; r16_7; r17_4; r18_4; r21_7; r21_9; r21_10 ]
