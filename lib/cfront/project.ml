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
      (** hash of the shared type-name scan — part of every per-file
          cache key, since the parse of one file depends on type names
          declared in every other *)
}

let make ~name modules = { p_name = name; p_modules = modules }

let all_files t = List.concat_map (fun m -> m.m_files) t.p_modules

let file_count t = List.length (all_files t)

(* Cheap cross-file type discovery: real projects share struct/typedef
   names through headers; an in-memory project shares them through this
   scan, so [struct X] defined in one file parses as a type in all.  It
   reads the final token stream of {!Parser.lex_file}, so names in
   inactive [#if] regions do not count. *)
let type_names_of_tokens (toks : Token.table) =
  let n = Token.length toks in
  let names = ref [] in
  let rec go i =
    if i < n then
      match Token.kind toks i with
      | Token.Keyword ("struct" | "class" | "enum") when i + 1 < n -> (
        match Token.kind toks (i + 1) with
        | Token.Ident name -> names := name :: !names; go (i + 1)
        | _ -> go (i + 1))
      | Token.Keyword "typedef" -> find_name None (i + 1)
      | _ -> go (i + 1)
  (* the identifier just before the terminating ';' *)
  and find_name last i =
    if i < n then
      match Token.kind toks i with
      | Token.Punct ";" ->
        (match last with Some name -> names := name :: !names | None -> ());
        go (i + 1)
      | Token.Ident name -> find_name (Some name) (i + 1)
      | _ -> find_name last (i + 1)
  in
  go 0;
  List.rev !names

let lex (f : source_file) = Parser.lex_file ~file:f.path f.content

let merge_type_names per_file = List.sort_uniq compare (List.concat per_file)

let scan_type_names (files : source_file list) =
  merge_type_names
    (Telemetry.parallel_map
       (fun f -> type_names_of_tokens (lex f).Parser.lx_tokens)
       files)

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

(* Each file is lexed once, in one fan-out over [Telemetry.parallel_map]
   that also collects its type names; the parse fans out again once the
   shared names are known.  Results come back in file order, and at
   --jobs 1 the map *is* List.map.

   Without a store every file is parsed, so each keeps its lexed table
   for the parse.  With a store most parses are hits that unmarshal a
   unit holding its own tokens, so a file keeps only its names and is
   lexed again only on a miss (DESIGN.md, section 3a). *)
let parse t =
  let sp = Telemetry.start_span ~cat:"cfront" "parse" in
  let t0 = Telemetry.now_us () in
  let store = Cache.global () in
  let lexed =
    Telemetry.with_span ~cat:"cfront" "parse.lex" (fun () ->
        Telemetry.parallel_map
          (fun f ->
            let lx = lex f in
            let names = type_names_of_tokens lx.Parser.lx_tokens in
            (f, (if Option.is_none store then Some lx else None), names))
          (all_files t))
  in
  let extra_types = merge_type_names (List.map (fun (_, _, names) -> names) lexed) in
  let types_key = Cache.fnv1a64 (String.concat "\x00" extra_types) in
  let files =
    Telemetry.parallel_map
      (fun (f, lx, _) ->
        let pf =
          Telemetry.timed "parse.file_us" @@ fun () ->
          let fresh () =
            let lx = match lx with Some lx -> lx | None -> lex f in
            { file = f; tu = Parser.parse_lexed ~extra_types lx }
          in
          match store with
          | None -> fresh ()
          | Some c ->
            (* Content-addressed parse artifact: a parse depends only on
               the path, the content and the shared type names. *)
            let key =
              Cache.key ~kind:"parse"
                [ f.path; Cache.fnv1a64 f.content; types_key ]
            in
            (* The key holds the content's hash, so the artifact leaves
               the source out and a hit shares the file's own string. *)
            (match Cache.find c ~kind:"parse" ~key with
             | Some (tu : Ast.tu) -> { file = f; tu = { tu with Ast.raw_source = f.content } }
             | None ->
               let pf = fresh () in
               Cache.store c ~owner:f.path ~kind:"parse" ~key
                 { pf.tu with Ast.raw_source = "" };
               pf)
        in
        Telemetry.observe "parse.file_ast_nodes"
          (float_of_int (pf.tu.Ast.n_exprs + pf.tu.Ast.n_stmts));
        pf)
      lexed
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
