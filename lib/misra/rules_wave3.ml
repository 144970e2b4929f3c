(** Third wave of MISRA C:2012 rules: comment hygiene, essential-type
    mixing, side-effect ordering hazards, escaping addresses, and the
    setjmp/signal bans. *)

open Cfront

let each_func (ctx : Rule.context) f = List.concat_map f ctx.Rule.functions

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

let all = [ r3_1; r10_4; r13_3; r13_6; r18_6; r21_4; r21_5 ]
