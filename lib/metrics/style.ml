(** Text-level style checker, modelled on the subset of the Google C++
    style guide that cpplint automates: line length, tabs, trailing
    whitespace, indentation step, spacing around braces. *)

type rule =
  | Line_too_long
  | Tab_character
  | Trailing_whitespace
  | Odd_indentation  (** indentation not a multiple of two *)
  | Missing_space_before_brace

type finding = { rule : rule; line : int; file : string }

let rule_name = function
  | Line_too_long -> "line longer than 100 columns"
  | Tab_character -> "tab character"
  | Trailing_whitespace -> "trailing whitespace"
  | Odd_indentation -> "indentation not a multiple of 2"
  | Missing_space_before_brace -> "missing space before '{'"

let max_line_len = 100

let check_line ~file lineno line =
  let findings = ref [] in
  let push rule = findings := { rule; line = lineno; file } :: !findings in
  if String.length line > max_line_len then push Line_too_long;
  if String.contains line '\t' then push Tab_character;
  let n = String.length line in
  if n > 0 && (line.[n - 1] = ' ' || line.[n - 1] = '\t') then push Trailing_whitespace;
  let indent = Util.Strutil.indent_width line in
  if indent mod 2 <> 0 && Util.Strutil.strip line <> "" then push Odd_indentation;
  (* "){"  or  ";{" without a space *)
  let rec scan i =
    if i + 1 < n then begin
      if line.[i + 1] = '{' && (line.[i] = ')' || Util.Strutil.is_ident_char line.[i]) then
        push Missing_space_before_brace;
      scan (i + 1)
    end
  in
  scan 0;
  List.rev !findings

let of_source ~file source =
  List.concat (List.mapi (fun i l -> check_line ~file (i + 1) l) (Util.Strutil.lines source))

let of_tu (tu : Cfront.Ast.tu) = of_source ~file:tu.tu_file tu.Cfront.Ast.raw_source

let of_files pfs = List.concat_map (fun pf -> of_tu (Cfront.Project.tu pf)) pfs

(** Violations per thousand physical lines — the pass criterion used in
    the compliance mapping ("style very well achieved" in the paper). *)
let per_kloc findings (loc : Loc_metrics.counts) =
  if loc.Loc_metrics.physical = 0 then 0.0
  else float_of_int (List.length findings) *. 1000.0 /. float_of_int loc.Loc_metrics.physical
