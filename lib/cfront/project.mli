(** In-memory project model.

    A project is a set of source files grouped into modules (Apollo's
    perception, planning, ...).  Files live in memory — the corpus
    generator produces them and the analyzers consume them without
    touching the filesystem, which keeps experiments hermetic. *)

type source_file = {
  path : string;  (** project-relative path, e.g. "perception/detector.cc" *)
  modname : string;  (** owning module *)
  header : bool;
  content : string;
}

type modul = { m_name : string; m_files : source_file list }

type t = { p_name : string; p_modules : modul list }

(** A unit's once-cell: the unit itself, or the deferred read of its
    [parse] artifact. *)
type unit_cell

type parsed_file = private { file : source_file; cell : unit_cell }

type parsed = {
  project : t;
  files : parsed_file list;
  types_key : string;  (** hash of the shared type-name scan *)
  hashes : string list;
      (** {!Cache.fnv1a64} of each file's content, in [files] order,
          hashed once by {!parse}; every whole-tree and per-file key
          folds them *)
}

val make : name:string -> modul list -> t

(** A parsed file whose unit is already at hand. *)
val parsed_file : source_file -> Ast.tu -> parsed_file

(** The file's unit, forced on first use when {!parse} deferred it.  The
    force is domain-safe: concurrent callers wait for one read and all
    get the same unit.  It reads the [parse] artifact, or lexes and
    parses the file afresh when the artifact has gone (swept, corrupt,
    or removed by another process), and never submits pool work.  A
    force counts [parse.forced] and the unit's [parse.ast_nodes],
    [parse.diagnostics] and [parse.file_ast_nodes]. *)
val tu : parsed_file -> Ast.tu
val all_files : t -> source_file list
val file_count : t -> int

(** Cheap cross-file type discovery: the struct/class/enum/typedef names
    of every file, sorted and deduplicated, standing in for the
    header-shared declarations of a real build.  Names are read from the
    final token stream of {!Parser.lex_file}, so a name declared only in
    an inactive [#if] region does not count.  Lexes every file; {!parse}
    does the same scan without lexing any file twice. *)
val scan_type_names : source_file list -> string list

(** Parse every file, seeding each unit's type registry with
    {!scan_type_names} of the whole project.  The units equal
    [Parser.parse_file ~extra_types:(scan_type_names files)] on each file,
    in file order, at any [--jobs].

    Each file's content is hashed once and two artifacts per file, both
    owned by its path, are looked up in [Cache.global ()]: its type names
    ([types], keyed on path and content hash) and its unit ([parse],
    keyed on those and the shared type names).  A file is lexed
    ({!Parser.lex_file}) only when its [types] artifact misses, and then
    at most once; its unit is then parsed from that stream
    ({!Parser.parse_lexed}), or read from the store, at once.  Without a
    store every lookup misses, so every file is lexed once and parsed at
    once, and no unit is deferred.  A file whose [types] artifact hits keeps only its [parse]
    key: {!tu} reads the unit the first time a consumer asks for it.
    When every [types] artifact hits, no file is lexed, no unit is read
    and no [parse.lex] span is opened.  [parse.ast_nodes],
    [parse.diagnostics] and [parse.file_ast_nodes] count the units
    parsed here; a deferred unit counts them when it is forced. *)
val parse : t -> parsed

(** Whole-tree cache keys.  [content_key] folds every path and content
    hash, in file order; artifacts that read only the sources (per-rule
    MISRA results) key on it.  [tree_key] also folds each file's module
    name and header flag; artifacts whose result names modules (the
    interproc summary, the core metric record) key on it. *)
val content_key : parsed -> string

val tree_key : parsed -> string

(** One key per file of [parsed.files]: path, content hash and the
    shared type-name scan.  Per-file artifacts (dataflow facts) key on
    it. *)
val file_keys : parsed -> string list

val parsed_files_of_module : parsed -> string -> parsed_file list
val module_names : t -> string list

(** Functions with a body across the given files. *)
val defined_functions : parsed_file list -> Ast.func list

val all_functions : parsed -> Ast.func list
