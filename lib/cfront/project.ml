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

(* A unit's once-cell.  [Deferred] holds the lock that serialises its
   first force and the computation; the force swaps in [Ready], which
   drops both.  The computation must not submit pool work: a worker
   blocked on the lock would then wait on its own queue. *)
type unit_state = Ready of Ast.tu | Deferred of Mutex.t * (unit -> Ast.tu)

type unit_cell = unit_state Atomic.t

type parsed_file = { file : source_file; cell : unit_cell }

type parsed = {
  project : t;
  files : parsed_file list;
  types_key : string;
      (** hash of the shared type-name scan — part of every per-file
          cache key, since the parse of one file depends on type names
          declared in every other *)
  hashes : string list;
      (** FNV-1a of each file's content, in [files] order, hashed once
          by the parse *)
}

let make ~name modules = { p_name = name; p_modules = modules }

let parsed_file file tu = { file; cell = Atomic.make (Ready tu) }

(* The fast path reads the cell without the lock; the first force takes
   it, so concurrent forces compute once and all see the same unit. *)
let tu pf =
  match Atomic.get pf.cell with
  | Ready tu -> tu
  | Deferred (lock, compute) ->
    Mutex.protect lock (fun () ->
        match Atomic.get pf.cell with
        | Ready tu -> tu
        | Deferred _ ->
          let tu = compute () in
          Atomic.set pf.cell (Ready tu);
          tu)

let count_unit (tu : Ast.tu) =
  let nodes = tu.Ast.n_exprs + tu.Ast.n_stmts in
  Telemetry.observe "parse.file_ast_nodes" (float_of_int nodes);
  Telemetry.add "parse.ast_nodes" nodes;
  Telemetry.add "parse.diagnostics" (List.length tu.Ast.diags)

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

(* Cache keys.  Every key below folds the per-file content hashes the
   parse took, so an audit hashes each file's bytes once.  All hashing
   is FNV-1a via Cache. *)
let fold_key parts_of parsed =
  Cache.fnv1a64
    (String.concat "\x00"
       (List.concat (List.map2 parts_of parsed.files parsed.hashes)))

let content_key = fold_key (fun pf h -> [ pf.file.path; h ])

let tree_key =
  fold_key (fun pf h ->
      [ pf.file.path; pf.file.modname; string_of_bool pf.file.header; h ])

let file_keys parsed =
  List.map2
    (fun pf h -> Cache.fnv1a64 (String.concat "\x00" [ pf.file.path; h; parsed.types_key ]))
    parsed.files parsed.hashes

(* One fan-out over [Telemetry.parallel_map] collects every file's type
   names; the parse fans out again once the shared names are known.
   Results come back in file order, and at --jobs 1 the map *is*
   List.map.

   A file's names are a [types] artifact keyed on its path and content
   hash, and its unit a [parse] artifact.  A file whose names missed is
   lexed, once, and its unit is parsed from that table or read from the
   store at once; without a store every lookup misses, so every file
   takes that path.  A file whose names hit is not lexed: its unit is
   deferred to the first [tu] call, which reads the artifact, or lexes
   and parses the file if the artifact has gone (DESIGN.md, section
   3a). *)
let parse t =
  let sp = Telemetry.start_span ~cat:"cfront" "parse" in
  let t0 = Telemetry.now_us () in
  let c = Cache.global () in
  let sources = all_files t in
  let hashes = List.map (fun f -> Cache.fnv1a64 f.content) sources in
  let names_key f h = Cache.key ~kind:"types" [ f.path; h ] in
  (* (file, its content hash, its type names if the store has them) *)
  let found =
    Telemetry.parallel_map
      (fun (f, h) -> (f, h, Cache.find c ~kind:"types" ~key:(names_key f h)))
      (List.combine sources hashes)
  in
  (* (file, its content hash, its lexed table if it was lexed, its type names) *)
  let lex_missing () =
    Telemetry.parallel_map
      (fun (f, h, names) ->
        match names with
        | Some names -> (f, h, None, names)
        | None ->
          let lx = lex f in
          let names = type_names_of_tokens lx.Parser.lx_tokens in
          Cache.store c ~owner:f.path ~kind:"types" ~key:(names_key f h)
            (names : string list);
          (f, h, Some lx, names))
      found
  in
  let lexed =
    if List.exists (fun (_, _, names) -> names = None) found then
      Telemetry.with_span ~cat:"cfront" "parse.lex" lex_missing
    else lex_missing ()
  in
  let extra_types = merge_type_names (List.map (fun (_, _, _, names) -> names) lexed) in
  let types_key = Cache.fnv1a64 (String.concat "\x00" extra_types) in
  (* A unit counts its work where it is parsed or forced; one read
     eagerly from the store counts none. *)
  let fresh lx =
    let tu = Parser.parse_lexed ~extra_types lx in
    count_unit tu;
    tu
  in
  let files =
    Telemetry.parallel_map
      (fun (f, h, lx, _) ->
        Telemetry.timed "parse.file_us" @@ fun () ->
        (* Content-addressed parse artifact: a parse depends only on the
           path, the content and the shared type names.  The key holds
           the content's hash, so the artifact leaves the source out and
           a hit shares the file's own string. *)
        let key = Cache.key ~kind:"parse" [ f.path; h; types_key ] in
        let find () =
          Option.map
            (fun (tu : Ast.tu) -> { tu with Ast.raw_source = f.content })
            (Cache.find c ~kind:"parse" ~key)
        in
        let parse_and_store lx =
          let tu = fresh lx in
          Cache.store c ~owner:f.path ~kind:"parse" ~key { tu with Ast.raw_source = "" };
          tu
        in
        match lx with
        | Some lx ->
          parsed_file f (match find () with Some tu -> tu | None -> parse_and_store lx)
        | None ->
          (* Its type names hit: the unit is read the first time a
             consumer asks for it, and parsed afresh if the artifact has
             gone by then. *)
          let force () =
            Telemetry.incr "parse.forced";
            match find () with
            | Some tu -> count_unit tu; tu
            | None -> parse_and_store (lex f)
          in
          { file = f; cell = Atomic.make (Deferred (Mutex.create (), force)) })
      lexed
  in
  let n_files = List.length files in
  Telemetry.add "parse.files" n_files;
  let dt_s = (Telemetry.now_us () -. t0) /. 1e6 in
  if Telemetry.enabled () then
    Telemetry.set_gauge "parse.files_per_s"
      (float_of_int n_files /. Stdlib.max 1e-9 dt_s);
  Telemetry.end_span sp ~attrs:[ ("files", string_of_int n_files) ];
  { project = t; files; types_key; hashes }

let parsed_files_of_module parsed modname =
  List.filter (fun pf -> pf.file.modname = modname) parsed.files

let module_names t = List.map (fun m -> m.m_name) t.p_modules

(** All functions with a body across a list of parsed files. *)
let defined_functions pfs =
  List.concat_map
    (fun pf ->
      List.filter (fun f -> f.Ast.f_body <> None) (Ast.functions_of_tu (tu pf)))
    pfs

let all_functions parsed = defined_functions parsed.files
