(** Third wave of MISRA C:2012 rules: comment hygiene, essential-type
    mixing, side-effect ordering hazards, escaping addresses, and the
    setjmp/signal bans. *)

open Cfront

(* 3.1: the character sequences /* and // shall not be used within a
   comment (a nested opener usually means an unclosed comment ate code). *)
let r3_1 =
  Rule.make ~id:"3.1" ~title:"no comment markers inside comments"
    ~category:Rule.Required (fun ctx ->
      List.concat_map
        (fun pf ->
          let src = (Project.tu pf).Ast.raw_source in
          let n = String.length src in
          let acc = ref [] in
          let line = ref 1 in
          let i = ref 0 in
          let flag () =
            acc :=
              Rule.v ~rule_id:"3.1"
                ~loc:(Loc.make ~file:(Project.tu pf).Ast.tu_file ~line:!line ~col:1)
                "comment marker inside a comment"
              :: !acc
          in
          while !i < n - 1 do
            (match (src.[!i], src.[!i + 1]) with
             | '\n', _ -> incr line
             | '/', '*' ->
               (* scan the block comment body *)
               i := !i + 2;
               let closed = ref false in
               while (not !closed) && !i < n - 1 do
                 (match (src.[!i], src.[!i + 1]) with
                  | '\n', _ -> incr line
                  | '*', '/' ->
                    closed := true;
                    incr i
                  | '/', ('*' | '/') -> flag ()
                  | _ -> ());
                 incr i
               done
             | '/', '/' ->
               (* line comment: a second // is idiomatic, but /* is not *)
               i := !i + 2;
               while !i < n - 1 && src.[!i] <> '\n' do
                 if src.[!i] = '/' && src.[!i + 1] = '*' then flag ();
                 incr i
               done;
               i := !i - 1
             | _ -> ());
            incr i
          done;
          List.rev !acc)
        ctx.Rule.files)

(* 10.4: both operands of an arithmetic operator shall have the same
   essential type category (no silent int/float mixing). *)
let r10_4 =
  Rule.visitor ~id:"10.4" ~title:"no mixed essential types in arithmetic"
    ~category:Rule.Required
    (Rule.collecting ~exprs:[ `Binary ]
       ~expr:(fun a e ->
         match e.Ast.e with
         | Ast.Binary ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), x, y) -> (
             let env = Rule.env a.Rule.info in
             match (Metrics.Casts.infer env x, Metrics.Casts.infer env y) with
             | Metrics.Casts.Kint, Metrics.Casts.Kfloat
             | Metrics.Casts.Kfloat, Metrics.Casts.Kint ->
               Rule.emit a
                 (Rule.v ~rule_id:"10.4" ~loc:e.Ast.eloc "int/float operands mixed in %s"
                    (Rule.name a.Rule.info))
             | _ -> ())
         | _ -> ())
       ())

(* 13.3: a full expression containing ++ or -- should have no other
   potential side effects. *)
let r13_3 =
  let count_effects e =
    let incdec = ref 0 and others = ref 0 in
    Ast.iter_exprs_of_expr
      (fun x ->
        match x.Ast.e with
        | Ast.Postfix _ | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), _) -> incr incdec
        | Ast.Assign _ | Ast.Call _ | Ast.Kernel_launch _ | Ast.New _ | Ast.Delete _ ->
          incr others
        | _ -> ())
      e;
    (!incdec, !others)
  in
  Rule.visitor ~id:"13.3" ~title:"++/-- shall be the only side effect"
    ~category:Rule.Advisory
    (Rule.collecting ~stmts:[ `Sexpr ]
       ~stmt:(fun a s ->
         match s.Ast.s with
         | Ast.Sexpr e ->
           let incdec, others = count_effects e in
           if incdec > 0 && (others > 0 || incdec > 1) then
             Rule.emit a
               (Rule.v ~rule_id:"13.3" ~loc:s.Ast.sloc
                  "increment mixed with other side effects in %s" (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 13.6: the operand of sizeof shall have no side effects. *)
let r13_6 =
  let impure inner =
    let found = ref false in
    Ast.iter_exprs_of_expr
      (fun x ->
        match x.Ast.e with
        | Ast.Assign _ | Ast.Call _ | Ast.Postfix _
        | Ast.Unary ((Ast.Pre_inc | Ast.Pre_dec), _) ->
          found := true
        | _ -> ())
      inner;
    !found
  in
  Rule.visitor ~id:"13.6" ~title:"sizeof operand shall be side-effect free"
    ~category:Rule.Mandatory
    (Rule.collecting ~exprs:[ `Sizeof_expr ]
       ~expr:(fun a e ->
         match e.Ast.e with
         | Ast.Sizeof_expr inner when impure inner ->
           Rule.emit a
             (Rule.v ~rule_id:"13.6" ~loc:e.Ast.eloc "side effect inside sizeof in %s"
                (Rule.name a.Rule.info))
         | _ -> ())
       ())

(* 18.6: the address of an object with automatic storage shall not escape
   its lifetime — the detectable core: returning &local.  The locals are
   all known at [finish], so a return may precede the declaration. *)
type escapes = {
  x_info : Rule.fn_info;
  locals : (string, unit) Hashtbl.t;
  mutable returned : (string * Ast.stmt) list;  (** [return &name;], reversed *)
}

let r18_6 =
  Rule.visitor ~id:"18.6" ~title:"no escaping addresses of locals"
    ~category:Rule.Required
    (Rule.Visit
       { stmts = [ `Sdecl; `Sfor; `Sreturn ];
         exprs = [];
         start = (fun x_info -> { x_info; locals = Hashtbl.create 8; returned = [] });
         stmt =
           (fun x s ->
             match s.Ast.s with
             | Ast.Sdecl ds | Ast.Sfor { init = Ast.Fi_decl ds; _ } ->
               List.iter
                 (fun (d : Ast.var_decl) -> Hashtbl.replace x.locals d.Ast.v_name ())
                 ds
             | Ast.Sreturn
                 (Some { e = Ast.Unary (Ast.Addr_of, { e = Ast.Id name; _ }); _ }) ->
               x.returned <- (name, s) :: x.returned
             | _ -> ());
         expr = (fun _ _ -> ());
         finish =
           (fun x ->
             List.filter_map
               (fun (name, s) ->
                 if Hashtbl.mem x.locals name then
                   Some
                     (Rule.v ~rule_id:"18.6" ~loc:s.Ast.sloc
                        "address of local %s returned from %s" name (Rule.name x.x_info))
                 else None)
               (List.rev x.returned)) })

(* 21.4: setjmp/longjmp shall not be used. *)
let r21_4 =
  Rules_functions.banned_call ~rule_id:"21.4" ~title:"setjmp/longjmp shall not be used"
    [ "setjmp"; "longjmp"; "sigsetjmp"; "siglongjmp" ]

(* 21.5: the signal-handling facilities shall not be used. *)
let r21_5 =
  Rules_functions.banned_call ~rule_id:"21.5" ~title:"signal handling shall not be used"
    [ "signal"; "sigaction"; "raise"; "kill" ]

let all = [ r3_1; r10_4; r13_3; r13_6; r18_6; r21_4; r21_5 ]
