(** Naming-convention checker, after the Google C++ style guide the paper
    says Apollo adopted: type names are [CamelCase]; function and method
    names are [CamelCase]; variable names are [snake_case]; class data
    members get a trailing underscore; constants are [kConstantName];
    enumerators are [kEnumName] or [UPPER_CASE]. *)

type rule =
  | Type_name
  | Function_name
  | Variable_name
  | Member_name
  | Constant_name
  | Enumerator_name

type finding = { rule : rule; name : string; loc : Cfront.Loc.t; expected : string }

let rule_name = function
  | Type_name -> "type name"
  | Function_name -> "function name"
  | Variable_name -> "variable name"
  | Member_name -> "data member name"
  | Constant_name -> "constant name"
  | Enumerator_name -> "enumerator name"

let is_upper_case s =
  s <> "" && Util.Strutil.for_all (fun c -> Util.Strutil.is_upper c || Util.Strutil.is_digit c || c = '_') s

let check_type_name name loc =
  if Util.Strutil.is_camel_case name then []
  else [ { rule = Type_name; name; loc; expected = "CamelCase" } ]

let check_function_name name loc =
  (* destructors and main/operator entry points are exempt *)
  if name = "main" || String.length name > 0 && name.[0] = '~' then []
  else if Util.Strutil.is_camel_case name then []
  else [ { rule = Function_name; name; loc; expected = "CamelCase" } ]

let check_variable_name name loc =
  if Util.Strutil.is_snake_case name then []
  else [ { rule = Variable_name; name; loc; expected = "snake_case" } ]

let check_member_name name loc =
  if Util.Strutil.is_member_name name then []
  else [ { rule = Member_name; name; loc; expected = "snake_case_ (trailing underscore)" } ]

let check_constant_name name loc =
  if Util.Strutil.is_kconstant name || is_upper_case name then []
  else [ { rule = Constant_name; name; loc; expected = "kCamelCase" } ]

let check_enumerator_name name loc =
  if Util.Strutil.is_kconstant name || is_upper_case name then []
  else [ { rule = Enumerator_name; name; loc; expected = "kCamelCase or UPPER_CASE" } ]

let of_tu (tu : Cfront.Ast.tu) =
  let acc = ref [] in
  let push fs = acc := fs @ !acc in
  Cfront.Ast.iter_tops
    (fun top ->
      match top with
      | Cfront.Ast.Trecord r ->
        push (check_type_name r.Cfront.Ast.r_name r.Cfront.Ast.r_loc);
        List.iter
          (fun ((access : Cfront.Ast.access), (d : Cfront.Ast.var_decl)) ->
            match access with
            | Cfront.Ast.Priv | Cfront.Ast.Prot ->
              push (check_member_name d.Cfront.Ast.v_name d.Cfront.Ast.v_loc)
            | Cfront.Ast.Pub ->
              (* public struct fields follow plain variable naming *)
              push (check_variable_name d.Cfront.Ast.v_name d.Cfront.Ast.v_loc))
          r.Cfront.Ast.r_fields;
        List.iter
          (fun (m : Cfront.Ast.func) ->
            if m.Cfront.Ast.f_name <> r.Cfront.Ast.r_name then
              push (check_function_name m.Cfront.Ast.f_name m.Cfront.Ast.f_loc))
          r.Cfront.Ast.r_methods
      | Cfront.Ast.Tfunc fn ->
        push (check_function_name fn.Cfront.Ast.f_name fn.Cfront.Ast.f_loc)
      | Cfront.Ast.Tglobal g ->
        let d = g.Cfront.Ast.g_decl in
        if g.Cfront.Ast.g_const then
          push (check_constant_name d.Cfront.Ast.v_name d.Cfront.Ast.v_loc)
        else push (check_variable_name d.Cfront.Ast.v_name d.Cfront.Ast.v_loc)
      | Cfront.Ast.Ttypedef (name, _) ->
        push (check_type_name name Cfront.Loc.dummy)
      | Cfront.Ast.Tenum e ->
        if e.Cfront.Ast.en_name <> "" then
          push (check_type_name e.Cfront.Ast.en_name e.Cfront.Ast.en_loc);
        List.iter
          (fun (n, _) -> push (check_enumerator_name n e.Cfront.Ast.en_loc))
          e.Cfront.Ast.en_items
      | _ -> ())
    tu.Cfront.Ast.tops;
  (* local variables *)
  List.iter
    (fun (fn : Cfront.Ast.func) ->
      match fn.Cfront.Ast.f_body with
      | None -> ()
      | Some body ->
        Cfront.Ast.iter_stmts
          (fun s ->
            match s.Cfront.Ast.s with
            | Cfront.Ast.Sdecl ds | Cfront.Ast.Sfor { init = Cfront.Ast.Fi_decl ds; _ } ->
              List.iter
                (fun (d : Cfront.Ast.var_decl) ->
                  push (check_variable_name d.Cfront.Ast.v_name d.Cfront.Ast.v_loc))
                ds
            | _ -> ())
          body)
    (Cfront.Ast.functions_of_tu tu);
  List.rev !acc

let of_files pfs = List.concat_map (fun pf -> of_tu (Cfront.Project.tu pf)) pfs

(** Compliance ratio: 1 - violations / checked items (approximated by
    identifier count). *)
let violation_count = List.length
