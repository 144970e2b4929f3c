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

type parsed_file = { file : source_file; tu : Ast.tu }

type parsed = {
  project : t;
  files : parsed_file list;
  types_key : string;  (** hash of the shared type-name scan *)
}

val make : name:string -> modul list -> t
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
    {!scan_type_names} of the whole project.  The result equals
    [Parser.parse_file ~extra_types:(scan_type_names files)] on each file,
    in file order, at any [--jobs].

    Each file is lexed once ({!Parser.lex_file}), and its type names come
    from that stream.  Without a store every file keeps its stream for
    {!Parser.parse_lexed}, so no file is lexed twice.  With a store
    ([Cache.global ()]) a file keeps only its names and is lexed again
    only if its [parse] artifact misses; a hit is served from the store. *)
val parse : t -> parsed

(** Cache key for the whole source tree: every path + content, in
    order.  Whole-project artifacts (per-rule MISRA results) key on
    this. *)
val content_key : t -> string

(** Cache key for one parsed file: path + content hash + the shared
    type-name scan.  Per-file artifacts (dataflow summaries) key on
    this. *)
val file_key : parsed -> parsed_file -> string

val parsed_files_of_module : parsed -> string -> parsed_file list
val module_names : t -> string list

(** Functions with a body across the given files. *)
val defined_functions : parsed_file list -> Ast.func list

val all_functions : parsed -> Ast.func list
