(** Global-variable census.

    ISO 26262-6 Table 8 item 5: "no use of global variables or else
    justification of their usage".  Constants are exempt (they cannot
    carry hidden state); extern declarations are not counted twice. *)

type record = {
  name : string;
  scope : string list;
  ty : Cfront.Ast.ctype;
  static : bool;
  device : bool;  (** CUDA [__device__]/[__constant__] global *)
  loc : Cfront.Loc.t;
  file : string;
}

let of_tu (tu : Cfront.Ast.tu) =
  List.filter_map
    (fun (g : Cfront.Ast.global_var) ->
      if Cfront.Ast.is_mutable_global g then
        Some
          {
            name = g.Cfront.Ast.g_decl.Cfront.Ast.v_name;
            scope = g.Cfront.Ast.g_scope;
            ty = g.Cfront.Ast.g_decl.Cfront.Ast.v_type;
            static = g.Cfront.Ast.g_static;
            device = g.Cfront.Ast.g_device;
            loc = g.Cfront.Ast.g_decl.Cfront.Ast.v_loc;
            file = tu.Cfront.Ast.tu_file;
          }
      else None)
    (Cfront.Ast.globals_of_tu tu)

let of_files pfs =
  List.concat_map (fun pf -> of_tu (Cfront.Project.tu pf)) pfs

(** Count of globals that are uninitialized at their declaration — feeds
    the "initialization of variables" guideline. *)
let uninitialized_globals (pfs : Cfront.Project.parsed_file list) =
  List.concat_map
    (fun pf ->
      List.filter
        (fun (g : Cfront.Ast.global_var) ->
          Cfront.Ast.is_mutable_global g && g.Cfront.Ast.g_decl.Cfront.Ast.v_init = None)
        (Cfront.Ast.globals_of_tu (Cfront.Project.tu pf)))
    pfs
