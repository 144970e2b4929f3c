(** Recursive-descent parser for the C/C++/CUDA subset.

    The parser is {b tolerant}: any top-level region it cannot parse is
    skipped (to the next balanced [;] or [}]) and recorded as
    {!Ast.Tunparsed} with a diagnostic — the behaviour of fuzzy industrial
    analyzers such as Lizard.  Inside function bodies parsing is strict; a
    failing body aborts only that definition.

    Expression and statement ids are a function of the unit's path and
    content only: dense local ids in parse order, qualified by
    {!id_tag}[ file].  Re-parsing a unit reproduces its ids whatever was
    parsed before it or alongside it, and units with different paths get
    disjoint ids (barring a tag collision, which
    [Coverage.Compile.compile_uncached] rejects). *)

exception Parse_error of string * Loc.t

(** Parse one translation unit.

    [extra_types] seeds the type-name registry — the stand-in for type
    names that would arrive via header includes (see
    {!Cfront.Project.parse}, which derives them automatically for
    multi-file projects).  [file] names locations and derives the id
    tag; [source] is the raw text (the preprocessor runs internally). *)
val parse_file : ?extra_types:string list -> file:string -> string -> Ast.tu

(** {2 The two halves of [parse_file]}

    [parse_file ?extra_types ~file source] is
    [parse_lexed ?extra_types (lex_file ~file source)].  Splitting it lets
    {!Cfront.Project.parse} lex each file once: the project-wide
    type-name scan reads the same final token stream the parse then
    consumes. *)

(** A lexed unit: everything of the front end's first half that the parse
    and the resulting {!Ast.tu} need, and nothing else (the preprocessed
    text and the pre-expansion tokens are dropped). *)
type lexed = {
  lx_file : string;  (** the [~file] it was lexed under *)
  lx_source : string;  (** the raw text, becomes [tu.raw_source] *)
  lx_tokens : Token.table;
      (** the final stream: directives stripped, conditionally excluded
          lines blanked, object-like macros expanded; ends in one [Eof] *)
  lx_directives : (int * Preproc.directive) list;
  lx_comment_lines : int;
  lx_diags : string list;  (** lexer diagnostics, then preprocessor ones *)
}

(** Preprocess, lex and expand object-like macros.  Total: never raises. *)
val lex_file : file:string -> string -> lexed

(** Parse a lexed unit.  [extra_types] as for {!parse_file}.  The unit's
    [diags] are the parser's, then [lx_diags]. *)
val parse_lexed : ?extra_types:string list -> lexed -> Ast.tu

(** The high bits shared by every expression and statement id of a
    unit parsed with [~file]: a 30-bit hash of the path, shifted above
    the 32-bit local id range. *)
val id_tag : string -> int

(** Parse an expression in isolation (tests and tooling). *)
val parse_expr_string : string -> Ast.expr
