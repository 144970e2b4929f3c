(** Text-level style checker, modelled on the subset of the Google C++
    style guide that cpplint automates: line length, tabs, trailing
    whitespace, indentation step, spacing around braces.

    One in-place pass over a unit's source counts its lines, its blank
    lines (for {!Loc_metrics}) and each rule's hits, with no line list
    and no per-line copy. *)

type rule =
  | Line_too_long
  | Tab_character
  | Trailing_whitespace
  | Odd_indentation  (** indentation not a multiple of two *)
  | Missing_space_before_brace

let index = function
  | Line_too_long -> 0
  | Tab_character -> 1
  | Trailing_whitespace -> 2
  | Odd_indentation -> 3
  | Missing_space_before_brace -> 4

let max_line_len = 100

type scan = {
  lines : int;  (** fields between newlines: ["a\n"] has two *)
  blank : int;  (** lines of spaces, tabs and carriage returns only *)
  hits : int array;  (** per rule, by {!index} *)
}

let hits s rule = s.hits.(index rule)
let findings s = Array.fold_left ( + ) 0 s.hits

let scan src =
  let n = String.length src in
  let hits = Array.make 5 0 in
  let hit rule = hits.(index rule) <- hits.(index rule) + 1 in
  let lines = ref 0 and blank = ref 0 in
  (* [a] starts a line; the last line ends at [n] *)
  let rec line a =
    if a <= n then begin
      let b = Option.value ~default:n (String.index_from_opt src a '\n') in
      incr lines;
      if b - a > max_line_len then hit Line_too_long;
      if b > a && (src.[b - 1] = ' ' || src.[b - 1] = '\t') then hit Trailing_whitespace;
      let indent = ref a in
      while !indent < b && src.[!indent] = ' ' do incr indent done;
      let tab = ref false and text = ref false in
      for i = a to b - 1 do
        let c = src.[i] in
        if c = '\t' then tab := true;
        if not (Util.Strutil.is_space c) then text := true;
        (* "){"  or  "x{" without a space *)
        if i + 1 < b && src.[i + 1] = '{' && (c = ')' || Util.Strutil.is_ident_char c) then
          hit Missing_space_before_brace
      done;
      if !tab then hit Tab_character;
      if not !text then incr blank
      else if (!indent - a) mod 2 <> 0 then hit Odd_indentation;
      line (b + 1)
    end
  in
  line 0;
  { lines = !lines; blank = !blank; hits }

(** A unit's line counts: its scan's, with the comment lines the lexer
    counted and the [logical] statements of its functions. *)
let loc_counts (tu : Cfront.Ast.tu) s ~logical =
  {
    Loc_metrics.physical = s.lines - s.blank;
    blank = s.blank;
    comment = tu.Cfront.Ast.comment_lines;
    logical;
    total = s.lines;
  }

(** Violations per thousand physical lines — the pass criterion used in
    the compliance mapping ("style very well achieved" in the paper). *)
let per_kloc findings (loc : Loc_metrics.counts) =
  if loc.Loc_metrics.physical = 0 then 0.0
  else float_of_int findings *. 1000.0 /. float_of_int loc.Loc_metrics.physical
