(** "No multiple use of variable names" (ISO 26262-6 Table 8, item 4).

    Two violation classes are reported:
    - a local variable shadowing an outer local, a parameter, or a
      file/namespace global;
    - the same global name declared in several translation units. *)

type finding = {
  name : string;
  loc : Cfront.Loc.t;
  kind : [ `Shadows_local | `Shadows_param | `Shadows_global | `Duplicate_global ];
  in_function : string option;
}

let kind_name = function
  | `Shadows_local -> "shadows outer local"
  | `Shadows_param -> "shadows parameter"
  | `Shadows_global -> "shadows global"
  | `Duplicate_global -> "global redefined in another unit"

let rec check_stmt ~globals ~params ~fname ~outer acc stmt =
  let decls_of s =
    match s.Cfront.Ast.s with
    | Cfront.Ast.Sdecl ds | Cfront.Ast.Sfor { init = Cfront.Ast.Fi_decl ds; _ } -> ds
    | _ -> []
  in
  match stmt.Cfront.Ast.s with
  | Cfront.Ast.Sblock ss ->
    (* sequential scan: each declaration extends the scope for siblings *)
    let _, acc =
      List.fold_left
        (fun (scope, acc) s ->
          let acc =
            List.fold_left
              (fun acc (d : Cfront.Ast.var_decl) ->
                let name = d.Cfront.Ast.v_name in
                if List.mem name scope then
                  { name; loc = d.Cfront.Ast.v_loc; kind = `Shadows_local;
                    in_function = Some fname } :: acc
                else if List.mem name params then
                  { name; loc = d.Cfront.Ast.v_loc; kind = `Shadows_param;
                    in_function = Some fname } :: acc
                else if Hashtbl.mem globals name then
                  { name; loc = d.Cfront.Ast.v_loc; kind = `Shadows_global;
                    in_function = Some fname } :: acc
                else acc)
              acc (decls_of s)
          in
          let scope' = List.map (fun d -> d.Cfront.Ast.v_name) (decls_of s) @ scope in
          let acc = check_stmt ~globals ~params ~fname ~outer:scope' acc s in
          (scope', acc))
        (outer, acc) ss
    in
    acc
  | Cfront.Ast.Sif { then_; else_; _ } ->
    let acc = check_stmt ~globals ~params ~fname ~outer acc then_ in
    (match else_ with
     | Some s -> check_stmt ~globals ~params ~fname ~outer acc s
     | None -> acc)
  | Cfront.Ast.Swhile (_, body)
  | Cfront.Ast.Sdo_while (body, _)
  | Cfront.Ast.Sswitch (_, body)
  | Cfront.Ast.Slabel (_, body) ->
    check_stmt ~globals ~params ~fname ~outer acc body
  | Cfront.Ast.Sfor { init; body; _ } ->
    let outer =
      match init with
      | Cfront.Ast.Fi_decl ds -> List.map (fun d -> d.Cfront.Ast.v_name) ds @ outer
      | _ -> outer
    in
    check_stmt ~globals ~params ~fname ~outer acc body
  | Cfront.Ast.Stry { body; catches } ->
    let acc = check_stmt ~globals ~params ~fname ~outer acc body in
    List.fold_left
      (fun acc (_, s) -> check_stmt ~globals ~params ~fname ~outer acc s)
      acc catches
  | _ -> acc

let of_func ~globals (fn : Cfront.Ast.func) =
  match fn.Cfront.Ast.f_body with
  | None -> []
  | Some body ->
    let params = List.map (fun p -> p.Cfront.Ast.p_name) fn.Cfront.Ast.f_params in
    List.rev
      (check_stmt ~globals ~params ~fname:(Cfront.Ast.qualified_name fn) ~outer:[]
         [] body)

let duplicate_globals (globals : Globals.record list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (g : Globals.record) -> Hashtbl.replace tbl (g.Globals.name, g.Globals.file) g)
    globals;
  (* names appearing in more than one file *)
  let by_name = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (name, _) g ->
      Hashtbl.replace by_name name (g :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
    tbl;
  Hashtbl.fold
    (fun name gs acc ->
      if List.length gs > 1 then
        List.map
          (fun (g : Globals.record) ->
            { name; loc = g.Globals.loc; kind = `Duplicate_global;
              in_function = None })
          gs
        @ acc
      else acc)
    by_name []

(** The findings over [pfs], given their mutable globals as
    {!Globals.of_files} lists them.  The global names form one hash set,
    so each local declaration costs one lookup. *)
let of_globals ~(globals : Globals.record list) (pfs : Cfront.Project.parsed_file list) =
  let names = Hashtbl.create (List.length globals) in
  List.iter (fun (g : Globals.record) -> Hashtbl.replace names g.Globals.name ()) globals;
  let per_func =
    List.concat_map
      (fun pf ->
        List.concat_map (of_func ~globals:names)
          (Cfront.Ast.functions_of_tu pf.Cfront.Project.tu))
      pfs
  in
  per_func @ duplicate_globals globals

let of_files pfs = of_globals ~globals:(Globals.of_files pfs) pfs
