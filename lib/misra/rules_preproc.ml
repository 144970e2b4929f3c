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
                     ~loc:(Loc.make ~file:(Project.tu pf).Ast.tu_file ~line ~col:1)
                     "#undef directive")
              | _ -> None)
            (Project.tu pf).Ast.directives)
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
                     ~loc:(Loc.make ~file:(Project.tu pf).Ast.tu_file ~line ~col:1)
                     "function-like macro %s" name)
              | _ -> None)
            (Project.tu pf).Ast.directives)
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
                     ~loc:(Loc.make ~file:(Project.tu pf).Ast.tu_file ~line ~col:1)
                     "reserved identifier %s redefined" name)
              | _ -> None)
            (Project.tu pf).Ast.directives)
        ctx.Rule.files)

(* 19.2: the union keyword should not be used. *)
let r19_2 =
  Rule.make ~id:"19.2" ~title:"union shall not be used" ~category:Rule.Advisory
    (fun ctx ->
      List.concat_map
        (fun pf ->
          let toks = (Project.tu pf).Ast.tokens in
          Token.filter_mapi
            (fun i -> function
              | Token.Keyword "union" ->
                Some (Rule.v ~rule_id:"19.2" ~loc:(Token.loc toks i) "union keyword")
              | _ -> None)
            toks)
        ctx.Rule.files)

(* Dir 4.4: sections of code should not be commented out — approximated by
   comment lines that end with ';' or contain '=' and parse as statements
   (text heuristic: a line that, stripped of blanks, starts with "//"
   and ends with ';').  Each line is scanned in place in the source. *)
let d4_4 =
  Rule.make ~id:"D4.4" ~title:"no commented-out code" ~category:Rule.Advisory
    ~decidable:false (fun ctx ->
      List.concat_map
        (fun pf ->
          let tu = Project.tu pf in
          let src = tu.Ast.raw_source in
          let n = String.length src in
          let acc = ref [] in
          (* [a] starts line [line]; the last line ends at [n] *)
          let rec scan a line =
            if a <= n then begin
              let b = Option.value ~default:n (String.index_from_opt src a '\n') in
              let p = ref a and q = ref (b - 1) in
              while !p < b && Util.Strutil.is_space src.[!p] do incr p done;
              while !q > !p && Util.Strutil.is_space src.[!q] do decr q done;
              if !q > !p && src.[!p] = '/' && src.[!p + 1] = '/' && src.[!q] = ';' then
                acc :=
                  Rule.v ~rule_id:"D4.4" ~loc:(Loc.make ~file:tu.Ast.tu_file ~line ~col:1)
                    "commented-out statement"
                  :: !acc;
              scan (b + 1) (line + 1)
            end
          in
          scan 0 1;
          List.rev !acc)
        ctx.Rule.files)

let all = [ r4_9; r19_2; r20_5; r21_1; d4_4 ]
