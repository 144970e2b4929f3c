(** Hand-rolled lexer for the C/C++/CUDA subset.

    Comments are skipped but counted (the LOC metric needs comment lines);
    preprocessor directives are expected to have been stripped by
    {!Preproc} before lexing (a directive line reaching the lexer is
    skipped with a diagnostic).  The lexer is total over the remaining
    character set: an unexpected character becomes a [Punct] of itself so
    that token-level checkers can still see it.

    The lexer is linear in the input: each character is looked at a
    bounded number of times, punctuators are matched on characters
    without building candidate strings, and identifier, keyword and
    punctuator spellings are interned ({!Token.intern_word}), so a
    spelling seen before allocates nothing.  Tokens go straight into a
    {!Token.table}. *)

type result = {
  tokens : Token.table;  (** ends in one [Eof] *)
  comment_lines : int;  (** number of source lines containing a comment *)
  diagnostics : string list;
}

type state = {
  src : string;
  len : int;
  file : string;
  names : Token.names;
  mutable pos : int;
  mutable line : int;
  mutable line_start : int;  (** offset of the first character of [line] *)
  mutable comment_lines : int;
  mutable last_comment_line : int;
  mutable diags : string list;
}

let make_state names ~file src =
  { src; len = String.length src; file; names; pos = 0; line = 1; line_start = 0;
    comment_lines = 0; last_comment_line = 0; diags = [] }

let eof st = st.pos >= st.len
let peek st = if st.pos < st.len then String.unsafe_get st.src st.pos else '\000'
let peek_at st n =
  if st.pos + n < st.len then String.unsafe_get st.src (st.pos + n) else '\000'

(* Advance over one character that may be a newline. *)
let advance st =
  if st.pos < st.len then begin
    if String.unsafe_get st.src st.pos = '\n' then begin
      st.line <- st.line + 1;
      st.line_start <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let here st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.line_start + 1)
let here_pos st = Token.pack ~line:st.line ~col:(st.pos - st.line_start + 1)

let diag st msg = st.diags <- msg :: st.diags

(* Lines are visited in increasing order, so remembering the last marked
   line is enough to count each comment line once. *)
let mark_comment_line st =
  if st.line <> st.last_comment_line then begin
    st.comment_lines <- st.comment_lines + 1;
    st.last_comment_line <- st.line
  end

let skip_to_newline st =
  match String.index_from_opt st.src st.pos '\n' with
  | Some i -> st.pos <- i
  | None -> st.pos <- st.len

let skip_line_comment st =
  mark_comment_line st;
  skip_to_newline st

let at_comment_close st = peek st = '*' && peek_at st 1 = '/'

(* A line counts as a comment line when it holds comment text other than
   the closing delimiter: the line of the opening "/*" always does, a
   later line does unless it is empty at end of input or starts with the
   closing delimiter. *)
let skip_block_comment st =
  st.pos <- st.pos + 2;
  mark_comment_line st;
  let rec go () =
    if eof st then diag st "unterminated block comment"
    else if at_comment_close st then st.pos <- st.pos + 2
    else begin
      advance st;
      if st.pos = st.line_start && not (eof st || at_comment_close st) then
        mark_comment_line st;
      go ()
    end
  in
  go ()

let skip_while st p = while st.pos < st.len && p (String.unsafe_get st.src st.pos) do st.pos <- st.pos + 1 done

let lex_ident st =
  let start = st.pos in
  skip_while st Util.Strutil.is_ident_char;
  Token.intern_word st.names st.src start (st.pos - start)

(* The value of an integer body (suffixes stripped).  C reads a leading
   [0x] as hex and a leading [0] as octal; an octal body with an 8 or 9
   in it is reported and read as decimal. *)
let int_value st ~pos body =
  let n = String.length body in
  if n > 1 && body.[0] = '0' && Util.Strutil.is_digit body.[1] then
    if Util.Strutil.for_all (fun c -> c >= '0' && c <= '7') body then
      Option.value ~default:0L (Int64.of_string_opt ("0o" ^ body))
    else begin
      let loc = Loc.make ~file:st.file ~line:(Token.line_of_pos pos) ~col:(Token.col_of_pos pos) in
      diag st (Printf.sprintf "%s: invalid digit in octal constant %s" (Loc.to_string loc) body);
      Option.value ~default:0L (Int64.of_string_opt body)
    end
  else
    match Int64.of_string_opt body with
    | Some v -> v
    | None -> (try Int64.of_float (float_of_string body) with _ -> 0L)

let lex_number st ~pos =
  let start = st.pos in
  let is_float = ref false in
  let hex = peek st = '0' && (peek_at st 1 = 'x' || peek_at st 1 = 'X') in
  if hex then begin
    st.pos <- st.pos + 2;
    skip_while st Util.Strutil.is_alnum
  end
  else begin
    skip_while st Util.Strutil.is_digit;
    if peek st = '.' && Util.Strutil.is_digit (peek_at st 1) then begin
      is_float := true;
      st.pos <- st.pos + 1;
      skip_while st Util.Strutil.is_digit
    end
    else if peek st = '.' && not (Util.Strutil.is_ident_start (peek_at st 1)) then begin
      is_float := true;
      st.pos <- st.pos + 1
    end;
    if peek st = 'e' || peek st = 'E' then begin
      is_float := true;
      st.pos <- st.pos + 1;
      if peek st = '+' || peek st = '-' then st.pos <- st.pos + 1;
      skip_while st Util.Strutil.is_digit
    end;
    (* literal suffixes *)
    while (match peek st with 'f' | 'F' | 'l' | 'L' | 'u' | 'U' -> true | _ -> false) do
      if peek st = 'f' || peek st = 'F' then is_float := true;
      st.pos <- st.pos + 1
    done
  end;
  let raw = String.sub st.src start (st.pos - start) in
  (* 'f'/'F' are hex digits, so only u/U/l/L may be stripped from a hex
     literal's tail *)
  let strip_suffix s =
    let n = ref (String.length s) in
    while
      !n > 0
      && (match s.[!n - 1] with
          | 'l' | 'L' | 'u' | 'U' -> true
          | 'f' | 'F' -> not hex
          | _ -> false)
    do
      decr n
    done;
    String.sub s 0 !n
  in
  let body = strip_suffix raw in
  if !is_float then Token.Float_lit ((try float_of_string body with _ -> 0.0), raw)
  else Token.Int_lit (int_value st ~pos body, raw)

let lex_escaped st =
  (* After the backslash: translate the escape, defaulting to the raw char. *)
  advance st;
  let c = peek st in
  advance st;
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c -> c

let lex_string st =
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if eof st then diag st "unterminated string literal"
    else
      match peek st with
      | '"' -> advance st
      | '\\' -> Buffer.add_char buf (lex_escaped st); go ()
      | '\n' -> diag st "newline in string literal"; advance st
      | c -> Buffer.add_char buf c; advance st; go ()
  in
  go ();
  Token.String_lit (Buffer.contents buf)

let lex_char st =
  advance st;
  let c = if peek st = '\\' then lex_escaped st else (let c = peek st in advance st; c) in
  if peek st = '\'' then advance st
  else diag st "unterminated char literal";
  Token.Char_lit c

(* Length of the punctuator at the cursor, longest match first.  The
   3-character ones are "<<<" / ">>>" (CUDA kernel-launch delimiters),
   "<<=", ">>=", "..." and "->*"; any other character is a punctuator of
   its own. *)
let punct_length st =
  match (peek st, peek_at st 1, peek_at st 2) with
  | ('<', '<', ('<' | '=')) | ('>', '>', ('>' | '=')) | ('.', '.', '.') | ('-', '>', '*') -> 3
  | ('<', ('<' | '='), _) | ('>', ('>' | '='), _)
  | (('=' | '!' | '*' | '/' | '%' | '^'), '=', _)
  | ('&', ('&' | '='), _) | ('|', ('|' | '='), _)
  | ('+', ('+' | '='), _) | ('-', ('-' | '=' | '>'), _) | (':', ':', _) -> 2
  | _ -> 1

(* Each domain lexes into one builder that it keeps: a unit's tokens are
   allocated once, in its trimmed table, and no per-file builder arrays
   are left for the major heap to collect. *)
let scratch = Domain.DLS.new_key (fun () -> Token.builder ~capacity:4096)

(** Lex [src] into a table whose identifier, keyword and punctuator
    kinds are interned in [names]. *)
let tokenize_with names ~file src =
  let st = make_state names ~file src in
  let out = Domain.DLS.get scratch in
  while not (eof st) do
    let c = peek st in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance st
    else if c = '/' && peek_at st 1 = '/' then skip_line_comment st
    else if c = '/' && peek_at st 1 = '*' then skip_block_comment st
    else if c = '#' then begin
      diag st (Printf.sprintf "%s: preprocessor directive reached lexer" (Loc.to_string (here st)));
      skip_to_newline st
    end
    else begin
      let pos = here_pos st in
      let kind =
        if Util.Strutil.is_ident_start c then lex_ident st
        else if Util.Strutil.is_digit c || (c = '.' && Util.Strutil.is_digit (peek_at st 1)) then
          lex_number st ~pos
        else if c = '"' then lex_string st
        else if c = '\'' then lex_char st
        else begin
          (* a punctuator never spans a newline: '\n' is whitespace above *)
          let n = punct_length st in
          let k = Token.intern_punct st.names src st.pos n in
          st.pos <- st.pos + n;
          k
        end
      in
      Token.push out kind pos
    end
  done;
  Token.push out Token.Eof (here_pos st);
  { tokens = Token.contents out ~file; comment_lines = st.comment_lines;
    diagnostics = List.rev st.diags }

(** [tokenize_with] over names of its own. *)
let tokenize ~file src = tokenize_with (Token.names ()) ~file src
