(** In-memory project model.

    A project is a set of source files grouped into modules (Apollo's
    perception, planning, …).  Files live in memory — the corpus generator
    produces them and the analyzers consume them without touching the
    filesystem, which keeps experiments hermetic. *)

type source_file = {
  path : string;  (** project-relative path, e.g. "perception/detector.cc" *)
  modname : string;  (** owning module, e.g. "perception" *)
  header : bool;
  content : string;
}

type modul = { m_name : string; m_files : source_file list }

type t = { p_name : string; p_modules : modul list }

type parsed_file = { file : source_file; tu : Ast.tu }

type parsed = {
  project : t;
  files : parsed_file list;
  types_key : string;
      (** hash of the shared type-name pre-scan — part of every per-file
          cache key, since the parse of one file depends on type names
          declared in every other *)
}

let make ~name modules = { p_name = name; p_modules = modules }

let all_files t = List.concat_map (fun m -> m.m_files) t.p_modules

let file_count t = List.length (all_files t)

(* Cheap cross-file type discovery: real projects share struct/typedef
   names through headers; an in-memory project shares them through this
   pre-scan, so [struct X] defined in one file parses as a type in all. *)
let type_names_of_file (f : source_file) =
  let names = ref [] in
  let toks = (Lexer.tokenize ~file:f.path f.content).Lexer.tokens in
  let rec go = function
    | { Token.kind = Token.Keyword ("struct" | "class" | "enum"); _ }
      :: ({ Token.kind = Token.Ident name; _ } :: _ as rest) ->
      names := name :: !names;
      go rest
    | { Token.kind = Token.Keyword "typedef"; _ } :: rest ->
      (* the identifier just before the terminating ';' *)
      let rec find_name last = function
        | { Token.kind = Token.Punct ";"; _ } :: rest' ->
          (match last with Some n -> names := n :: !names | None -> ());
          go rest'
        | { Token.kind = Token.Ident n; _ } :: rest' -> find_name (Some n) rest'
        | _ :: rest' -> find_name last rest'
        | [] -> ()
      in
      find_name None rest
    | _ :: rest -> go rest
    | [] -> ()
  in
  go toks;
  List.rev !names

let scan_type_names (files : source_file list) =
  List.sort_uniq compare
    (List.concat (Telemetry.parallel_map type_names_of_file files))

(* Cache keys.  A file's parse depends on its path (locations), its
   content, and the project-wide type-name scan; the project key folds
   every path + content, in order.  All hashing is FNV-1a via Cache. *)

let content_key t =
  Cache.fnv1a64
    (String.concat "\x00"
       (List.concat_map (fun f -> [ f.path; f.content ]) (all_files t)))

let file_key parsed (pf : parsed_file) =
  Cache.fnv1a64
    (String.concat "\x00"
       [ pf.file.path; Cache.fnv1a64 pf.file.content; parsed.types_key ])

(* Both the pre-scan and the per-file parse fan out over
   [Telemetry.parallel_map]: files are independent once the shared type
   names are known, results come back in file order, and at --jobs 1 the
   map *is* List.map, so sequential runs take the exact historical path. *)
let parse t =
  let sp = Telemetry.start_span ~cat:"cfront" "parse" in
  let t0 = Telemetry.now_us () in
  let extra_types =
    Telemetry.with_span ~cat:"cfront" "parse.scan_types" (fun () ->
        scan_type_names (all_files t))
  in
  let types_key = Cache.fnv1a64 (String.concat "\x00" extra_types) in
  let files =
    Telemetry.parallel_map
      (fun f ->
        let pf =
          Telemetry.timed "parse.file_us" @@ fun () ->
          let fresh () =
            { file = f; tu = Parser.parse_file ~extra_types ~file:f.path f.content }
          in
          match Cache.global () with
          | None -> fresh ()
          | Some c ->
            (* Content-addressed parse artifact: a parse depends only on
               the path, the content and the shared type names. *)
            let key =
              Cache.key ~kind:"parse"
                [ f.path; Cache.fnv1a64 f.content; types_key ]
            in
            (match Cache.find c ~kind:"parse" ~key with
             | Some (tu : Ast.tu) -> { file = f; tu }
             | None ->
               let pf = fresh () in
               Cache.store c ~owner:f.path ~kind:"parse" ~key pf.tu;
               pf)
        in
        Telemetry.observe "parse.file_ast_nodes"
          (float_of_int (pf.tu.Ast.n_exprs + pf.tu.Ast.n_stmts));
        pf)
      (all_files t)
  in
  let n_files = List.length files in
  let ast_nodes =
    List.fold_left
      (fun acc pf -> acc + pf.tu.Ast.n_exprs + pf.tu.Ast.n_stmts)
      0 files
  in
  Telemetry.add "parse.files" n_files;
  Telemetry.add "parse.ast_nodes" ast_nodes;
  Telemetry.add "parse.diagnostics"
    (List.fold_left (fun acc pf -> acc + List.length pf.tu.Ast.diags) 0 files);
  let dt_s = (Telemetry.now_us () -. t0) /. 1e6 in
  if Telemetry.enabled () then
    Telemetry.set_gauge "parse.files_per_s"
      (float_of_int n_files /. Stdlib.max 1e-9 dt_s);
  Telemetry.end_span sp
    ~attrs:[ ("files", string_of_int n_files);
             ("ast_nodes", string_of_int ast_nodes) ];
  { project = t; files; types_key }

let parsed_files_of_module parsed modname =
  List.filter (fun pf -> pf.file.modname = modname) parsed.files

let module_names t = List.map (fun m -> m.m_name) t.p_modules

(** All functions with a body across a list of parsed files. *)
let defined_functions pfs =
  List.concat_map
    (fun pf ->
      List.filter (fun f -> f.Ast.f_body <> None) (Ast.functions_of_tu pf.tu))
    pfs

let all_functions parsed = defined_functions parsed.files
