(** Control-flow rules (MISRA C:2012 sections 14-16). *)

open Cfront

(* 15.1: the goto statement should not be used. *)
let r15_1 =
  Rule.visitor ~id:"15.1" ~title:"goto shall not be used" ~category:Rule.Advisory
    (Rule.collecting ~stmts:[ `Sgoto ]
       ~stmt:(fun a s ->
         match s.Ast.s with
         | Ast.Sgoto label ->
           Rule.emit a
             (Rule.v ~rule_id:"15.1" ~loc:s.Ast.sloc "goto %s in %s" label
                (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 15.2: goto shall jump to a label declared later in the same function.
   The labels are all known at [finish], so a goto may precede its
   label in the walk. *)
type gotos = {
  g_info : Rule.fn_info;
  labels : (string, int) Hashtbl.t;  (** label -> line, the last wins *)
  mutable gotos : (string * Ast.stmt) list;  (** reversed *)
}

let r15_2 =
  Rule.visitor ~id:"15.2" ~title:"goto shall jump forward only" ~category:Rule.Required
    (Rule.Visit
       { stmts = [ `Slabel; `Sgoto ];
         exprs = [];
         start = (fun g_info -> { g_info; labels = Hashtbl.create 4; gotos = [] });
         stmt =
           (fun g s ->
             match s.Ast.s with
             | Ast.Slabel (l, _) -> Hashtbl.replace g.labels l s.Ast.sloc.Loc.line
             | Ast.Sgoto l -> g.gotos <- (l, s) :: g.gotos
             | _ -> ());
         expr = (fun _ _ -> ());
         finish =
           (fun g ->
             List.filter_map
               (fun (l, s) ->
                 match Hashtbl.find_opt g.labels l with
                 | Some line when line < s.Ast.sloc.Loc.line ->
                   Some
                     (Rule.v ~rule_id:"15.2" ~loc:s.Ast.sloc "backward goto %s in %s" l
                        (Rule.name g.g_info))
                 | _ -> None)
               (List.rev g.gotos)) })

(* 15.4: there should be at most one break or goto used to terminate a loop. *)
let r15_4 =
  (* count breaks directly inside each loop body, not nested in an inner
     loop or switch *)
  let rec breaks_in s =
    match s.Ast.s with
    | Ast.Sbreak -> 1
    | Ast.Sblock ss -> Util.Stats.sum_int (List.map breaks_in ss)
    | Ast.Sif { then_; else_; _ } ->
      breaks_in then_ + Option.fold ~none:0 ~some:breaks_in else_
    | Ast.Slabel (_, inner) -> breaks_in inner
    | Ast.Stry { body; catches } ->
      breaks_in body + Util.Stats.sum_int (List.map (fun (_, s) -> breaks_in s) catches)
    | _ -> 0
  in
  Rule.visitor ~id:"15.4" ~title:"at most one break per loop" ~category:Rule.Advisory
    (Rule.collecting ~stmts:[ `Swhile; `Sdo_while; `Sfor ]
       ~stmt:(fun a s ->
         match s.Ast.s with
         | Ast.Swhile (_, b) | Ast.Sdo_while (b, _) | Ast.Sfor { body = b; _ } ->
           let n = breaks_in b in
           if n > 1 then
             Rule.emit a
               (Rule.v ~rule_id:"15.4" ~loc:s.Ast.sloc
                  "%d break statements terminate one loop in %s" n
                  (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 15.5: a function should have a single point of exit at the end
   ({!Metrics.Func_shape}'s multi-exit test: more than one return, a
   throw, or one return that does not end the body). *)
type exits = { e_info : Rule.fn_info; mutable returns : int; mutable throws : int }

let r15_5 =
  Rule.visitor ~id:"15.5" ~title:"single point of exit" ~category:Rule.Advisory
    (Rule.Visit
       { stmts = [ `Sreturn ];
         exprs = [ `Throw ];
         start = (fun e_info -> { e_info; returns = 0; throws = 0 });
         stmt = (fun x _ -> x.returns <- x.returns + 1);
         expr = (fun x _ -> x.throws <- x.throws + 1);
         finish =
           (fun x ->
             let fn = x.e_info.Rule.fn in
             let multi_exit =
               match fn.Ast.f_body with
               | None -> false
               | Some body ->
                 x.returns > 1 || x.throws > 0
                 || (x.returns = 1 && not (Metrics.Census.ends_with_return body))
             in
             if multi_exit then
               [ Rule.v ~rule_id:"15.5" ~loc:fn.Ast.f_loc "%s has %d return statements"
                   (Rule.name x.e_info) x.returns ]
             else []) })

(* 15.6: the body of an iteration/selection statement shall be compound. *)
let r15_6 =
  let is_block s = match s.Ast.s with Ast.Sblock _ -> true | _ -> false in
  Rule.visitor ~id:"15.6" ~title:"loop/if bodies shall be compound statements"
    ~category:Rule.Required
    (Rule.collecting ~stmts:[ `Sif; `Swhile; `Sdo_while; `Sfor ]
       ~stmt:(fun a s ->
         let flag loc what =
           Rule.emit a
             (Rule.v ~rule_id:"15.6" ~loc "%s body is not a compound statement in %s"
                what (Rule.name a.Rule.info))
         in
         match s.Ast.s with
         | Ast.Sif { then_; else_; _ } ->
           if not (is_block then_) then flag then_.Ast.sloc "if";
           (match else_ with
            | Some { s = Ast.Sif _; _ } -> ()  (* else-if chain is fine *)
            | Some e when not (is_block e) -> flag e.Ast.sloc "else"
            | _ -> ())
         | Ast.Swhile (_, b) -> if not (is_block b) then flag b.Ast.sloc "while"
         | Ast.Sdo_while (b, _) -> if not (is_block b) then flag b.Ast.sloc "do"
         | Ast.Sfor { body = b; _ } -> if not (is_block b) then flag b.Ast.sloc "for"
         | _ -> ())
       ())

(* 15.7: all if...else if constructs shall be terminated with an else. *)
let r15_7 =
  Rule.visitor ~id:"15.7" ~title:"if-else-if chains shall end with else"
    ~category:Rule.Required
    (Rule.collecting ~stmts:[ `Sif ]
       ~stmt:(fun a s ->
         match s.Ast.s with
         | Ast.Sif { else_ = Some { s = Ast.Sif { else_ = None; _ }; sloc; _ }; _ } ->
           Rule.emit a
             (Rule.v ~rule_id:"15.7" ~loc:sloc "if-else-if without final else in %s"
                (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 16.4: every switch statement shall have a default label. *)
let r16_4 =
  Rule.visitor ~id:"16.4" ~title:"every switch shall have a default"
    ~category:Rule.Required
    (Rule.collecting ~stmts:[ `Sswitch ]
       ~stmt:(fun a s ->
         match s.Ast.s with
         | Ast.Sswitch (_, sw_body) ->
           let has_default = ref false in
           Ast.iter_stmts
             (fun t -> match t.Ast.s with Ast.Sdefault -> has_default := true | _ -> ())
             sw_body;
           if not !has_default then
             Rule.emit a
               (Rule.v ~rule_id:"16.4" ~loc:s.Ast.sloc "switch without default in %s"
                  (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 16.6: every switch shall have at least two switch-clauses. *)
let r16_6 =
  Rule.visitor ~id:"16.6" ~title:"switch shall have at least two clauses"
    ~category:Rule.Required
    (Rule.collecting ~stmts:[ `Sswitch ]
       ~stmt:(fun a s ->
         match s.Ast.s with
         | Ast.Sswitch (_, sw_body) ->
           let clauses = ref 0 in
           Ast.iter_stmts
             (fun t ->
               match t.Ast.s with Ast.Scase _ | Ast.Sdefault -> incr clauses | _ -> ())
             sw_body;
           if !clauses < 2 then
             Rule.emit a
               (Rule.v ~rule_id:"16.6" ~loc:s.Ast.sloc "switch with %d clause(s) in %s"
                  !clauses (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 16.3: an unconditional break shall terminate every switch-clause
   (fall-through detection). *)
let r16_3 =
  (* a block ending in break also terminates *)
  let rec ends_in_jump st =
    match st.Ast.s with
    | Ast.Sbreak | Ast.Sreturn _ | Ast.Sgoto _ | Ast.Scontinue -> true
    | Ast.Sblock ss -> (
        match List.rev ss with last :: _ -> ends_in_jump last | [] -> false)
    | _ -> false
  in
  Rule.visitor ~id:"16.3" ~title:"every switch clause shall end with break"
    ~category:Rule.Required
    (Rule.collecting ~stmts:[ `Sswitch ]
       ~stmt:(fun a s ->
         match s.Ast.s with
         | Ast.Sswitch (_, { s = Ast.Sblock stmts; _ }) ->
           (* scan clause boundaries: a case/default label reached while
              the previous clause has statements but no terminator is a
              fall-through *)
           let in_clause = ref false in
           let clause_terminated = ref true in
           let clause_has_code = ref false in
           List.iter
             (fun t ->
               match t.Ast.s with
               | Ast.Scase _ | Ast.Sdefault ->
                 if !in_clause && !clause_has_code && not !clause_terminated then
                   Rule.emit a
                     (Rule.v ~rule_id:"16.3" ~loc:t.Ast.sloc
                        "switch clause falls through in %s" (Rule.name a.Rule.info));
                 in_clause := true;
                 clause_terminated := false;
                 clause_has_code := false
               | Ast.Sbreak | Ast.Sreturn _ | Ast.Sgoto _ | Ast.Scontinue ->
                 clause_terminated := true
               | _ ->
                 clause_has_code := true;
                 if ends_in_jump t then clause_terminated := true)
             stmts
         | _ -> ())
       ())

(* 14.3: controlling expressions shall not be invariant. *)
let r14_3 =
  let is_const_expr e =
    match e.Ast.e with
    | Ast.Int_const _ | Ast.Bool_const _ | Ast.Float_const _ -> true
    | _ -> false
  in
  Rule.visitor ~id:"14.3" ~title:"controlling expressions shall not be invariant"
    ~category:Rule.Required
    (Rule.collecting ~stmts:[ `Sif; `Sdo_while ]
       ~stmt:(fun a s ->
         match s.Ast.s with
         | Ast.Sif { cond; _ } when is_const_expr cond ->
           Rule.emit a
             (Rule.v ~rule_id:"14.3" ~loc:s.Ast.sloc "constant if-condition in %s"
                (Rule.name a.Rule.info))
         | Ast.Sdo_while (_, c) when is_const_expr c -> (
             match c.Ast.e with
             | Ast.Int_const 0L | Ast.Bool_const false -> ()  (* do {...} while(0) idiom *)
             | _ ->
               Rule.emit a
                 (Rule.v ~rule_id:"14.3" ~loc:s.Ast.sloc
                    "constant do-while condition in %s" (Rule.name a.Rule.info)))
         | _ -> ())
       ())

(* 14.1: loop counters shall not have floating type. *)
let r14_1 =
  Rule.visitor ~id:"14.1" ~title:"no floating-point loop counters"
    ~category:Rule.Required
    (Rule.collecting ~stmts:[ `Sfor ]
       ~stmt:(fun a s ->
         match s.Ast.s with
         | Ast.Sfor { init = Ast.Fi_decl ds; _ } ->
           List.iter
             (fun (d : Ast.var_decl) ->
               match d.Ast.v_type with
               | Ast.Tfloat | Ast.Tdouble ->
                 Rule.emit a
                   (Rule.v ~rule_id:"14.1" ~loc:d.Ast.v_loc "float loop counter %s in %s"
                      d.Ast.v_name (Rule.name a.Rule.info))
               | _ -> ())
             ds
         | _ -> ())
       ())

(* 13.4: the result of an assignment operator should not be used
   (assignment inside a condition). *)
let r13_4 =
  let has_assign e =
    let found = ref false in
    Ast.iter_exprs_of_expr
      (fun x -> match x.Ast.e with Ast.Assign _ -> found := true | _ -> ())
      e;
    !found
  in
  Rule.visitor ~id:"13.4" ~title:"no assignment in controlling expressions"
    ~category:Rule.Advisory
    (Rule.collecting ~stmts:[ `Sif; `Swhile; `Sdo_while ]
       ~stmt:(fun a s ->
         let flag loc =
           Rule.emit a
             (Rule.v ~rule_id:"13.4" ~loc "assignment used as condition in %s"
                (Rule.name a.Rule.info))
         in
         match s.Ast.s with
         | Ast.Sif { cond; _ } when has_assign cond -> flag s.Ast.sloc
         | Ast.Swhile (c, _) when has_assign c -> flag s.Ast.sloc
         | Ast.Sdo_while (_, c) when has_assign c -> flag s.Ast.sloc
         | _ -> ())
       ())

(* 12.3: the comma operator should not be used. *)
let r12_3 =
  Rule.visitor ~id:"12.3" ~title:"comma operator shall not be used"
    ~category:Rule.Advisory
    (Rule.collecting ~exprs:[ `Binary ]
       ~expr:(fun a e ->
         match e.Ast.e with
         | Ast.Binary (Ast.Comma, _, _) ->
           Rule.emit a
             (Rule.v ~rule_id:"12.3" ~loc:e.Ast.eloc "comma operator in %s"
                (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 2.1: a project shall not contain unreachable code.  Flow-sensitive
   since the dataflow engine landed: the dataflow layer lowers each
   function to a CFG, and any region of blocks not reachable from the
   entry is flagged once, at its first statement.  This sees through
   arbitrary control flow — code after a branch whose arms both return,
   statements between an unconditional jump and the next label, dead
   switch clauses — while code reached only via a goto stays clean. *)
let r2_1 =
  Rule.make ~id:"2.1" ~title:"no unreachable code" ~category:Rule.Required
    (fun ctx ->
      List.concat_map
        (fun (x : Dataflow.Analyses.func_facts) ->
          List.map
            (fun loc ->
              Rule.v ~rule_id:"2.1" ~loc "unreachable statement in %s"
                x.Dataflow.Analyses.x_function)
            x.Dataflow.Analyses.x_unreachable)
        ctx.Rule.facts)

let all = [ r2_1; r12_3; r13_4; r14_1; r14_3; r15_1; r15_2; r15_4; r15_5; r15_6; r15_7; r16_3; r16_4; r16_6 ]
