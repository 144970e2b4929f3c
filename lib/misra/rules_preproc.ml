(** Preprocessor rules (MISRA C:2012 section 20) and token-level checks. *)

open Cfront

(* 20.5: #undef should not be used. *)
let r20_5 =
  Rule.make ~id:"20.5" ~title:"#undef should not be used" ~category:Rule.Advisory
    (fun ctx ->
      List.concat_map
        (fun pf ->
          List.filter_map
            (fun (line, d) ->
              match d with
              | Preproc.Other "undef" ->
                Some
                  (Rule.v ~rule_id:"20.5"
                     ~loc:(Loc.make ~file:pf.Project.tu.Ast.tu_file ~line ~col:1)
                     "#undef directive")
              | _ -> None)
            pf.Project.tu.Ast.directives)
        ctx.Rule.files)

(* 20.7: macro parameter expansion — we flag function-like macros entirely
   (4.9 advisory: function-like macros should not be defined). *)
let r4_9 =
  Rule.make ~id:"4.9" ~title:"function-like macros should not be defined"
    ~category:Rule.Advisory (fun ctx ->
      List.concat_map
        (fun pf ->
          List.filter_map
            (fun (line, d) ->
              match d with
              | Preproc.Define { name; function_like = true; _ } ->
                Some
                  (Rule.v ~rule_id:"4.9"
                     ~loc:(Loc.make ~file:pf.Project.tu.Ast.tu_file ~line ~col:1)
                     "function-like macro %s" name)
              | _ -> None)
            pf.Project.tu.Ast.directives)
        ctx.Rule.files)

(* 21.1: #define shall not redefine reserved identifiers. *)
let r21_1 =
  Rule.make ~id:"21.1" ~title:"no #define of reserved identifiers"
    ~category:Rule.Required (fun ctx ->
      let reserved name =
        Token.is_keyword name
        || (String.length name >= 2 && name.[0] = '_' && name.[1] = '_')
        || List.mem name [ "errno"; "assert"; "NULL"; "stdin"; "stdout"; "stderr" ]
      in
      List.concat_map
        (fun pf ->
          List.filter_map
            (fun (line, d) ->
              match d with
              | Preproc.Define { name; _ } when reserved name ->
                Some
                  (Rule.v ~rule_id:"21.1"
                     ~loc:(Loc.make ~file:pf.Project.tu.Ast.tu_file ~line ~col:1)
                     "reserved identifier %s redefined" name)
              | _ -> None)
            pf.Project.tu.Ast.directives)
        ctx.Rule.files)

(* 19.2: the union keyword should not be used. *)
let r19_2 =
  Rule.make ~id:"19.2" ~title:"union shall not be used" ~category:Rule.Advisory
    (fun ctx ->
      List.concat_map
        (fun pf ->
          let toks = pf.Project.tu.Ast.tokens in
          Token.filter_mapi
            (fun i -> function
              | Token.Keyword "union" ->
                Some (Rule.v ~rule_id:"19.2" ~loc:(Token.loc toks i) "union keyword")
              | _ -> None)
            toks)
        ctx.Rule.files)

(* Dir 4.4: sections of code should not be commented out — approximated by
   comment lines that end with ';' or contain '=' and parse as statements
   (text heuristic: a comment line with a trailing semicolon). *)
let d4_4 =
  Rule.make ~id:"D4.4" ~title:"no commented-out code" ~category:Rule.Advisory
    ~decidable:false (fun ctx ->
      List.concat_map
        (fun pf ->
          let lines = Util.Strutil.lines pf.Project.tu.Ast.raw_source in
          List.concat
            (List.mapi
               (fun i line ->
                 let t = Util.Strutil.strip line in
                 if Util.Strutil.starts_with ~prefix:"//" t
                    && Util.Strutil.ends_with ~suffix:";" t
                 then
                   [ Rule.v ~rule_id:"D4.4"
                       ~loc:(Loc.make ~file:pf.Project.tu.Ast.tu_file ~line:(i + 1) ~col:1)
                       "commented-out statement" ]
                 else [])
               lines))
        ctx.Rule.files)

let all = [ r4_9; r19_2; r20_5; r21_1; d4_4 ]
