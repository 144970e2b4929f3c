(** Lightweight preprocessor.

    Runs over raw source text before lexing.  It records [#include] and
    [#define] directives, evaluates a small conditional language
    ([#if 0/1], [#ifdef], [#ifndef], [#else], [#endif], [defined(X)]), and
    strips directive lines.  Stripped and conditionally-excluded lines are
    replaced by blank lines so that every token's line number still refers
    to the original file.  Object-like macros are substituted later, on the
    token stream ({!expand_macros}), which avoids re-lexing text. *)

type directive =
  | Include of { path : string; system : bool }
  | Define of { name : string; body : string; function_like : bool }
  | Ifdef_like of string
  | Pragma of string
  | Other of string

type result = {
  text : string;  (** directive-free text, same number of lines as input *)
  directives : (int * directive) list;  (** line number, directive *)
  diagnostics : string list;
}

let parse_include line =
  (* after the "include" keyword *)
  let line = Util.Strutil.strip line in
  let n = String.length line in
  if n >= 2 && line.[0] = '<' then
    let close = try String.index line '>' with Not_found -> n - 1 in
    Some (String.sub line 1 (close - 1), true)
  else if n >= 2 && line.[0] = '"' then
    let close = try String.index_from line 1 '"' with Not_found -> n - 1 in
    Some (String.sub line 1 (close - 1), false)
  else None

let parse_define line =
  let line = Util.Strutil.strip line in
  let n = String.length line in
  let rec ident_end i =
    if i < n && Util.Strutil.is_ident_char line.[i] then ident_end (i + 1) else i
  in
  let stop = ident_end 0 in
  if stop = 0 then None
  else
    let name = String.sub line 0 stop in
    let function_like = stop < n && line.[stop] = '(' in
    let body =
      if function_like then
        (* skip the parameter list; body of function-like macros is kept
           verbatim for the record but never substituted *)
        match String.index_opt line ')' with
        | Some i -> Util.Strutil.strip (String.sub line (i + 1) (n - i - 1))
        | None -> ""
      else Util.Strutil.strip (String.sub line stop (n - stop))
    in
    Some (name, body, function_like)

(** Condition evaluation for [#if]: understands 0, 1, identifiers
    (defined => 1), defined(X), !expr.  Anything else evaluates to false
    with a diagnostic. *)
let eval_condition ~defined expr diags =
  let expr = Util.Strutil.strip expr in
  let rec eval e =
    let e = Util.Strutil.strip e in
    if e = "" then false
    else if e.[0] = '!' then not (eval (String.sub e 1 (String.length e - 1)))
    else if e = "0" then false
    else if e = "1" then true
    else if Util.Strutil.starts_with ~prefix:"defined" e then begin
      let inner =
        match (String.index_opt e '(', String.index_opt e ')') with
        | Some a, Some b when b > a -> String.sub e (a + 1) (b - a - 1)
        | _ -> String.sub e 7 (String.length e - 7)
      in
      defined (Util.Strutil.strip inner)
    end
    else if Util.Strutil.for_all Util.Strutil.is_ident_char e then defined e
    else begin
      diags := Printf.sprintf "unsupported #if condition %S treated as false" e :: !diags;
      false
    end
  in
  eval expr

type cond_frame = { parent_active : bool; mutable this_active : bool; mutable taken : bool }

let run ~file src =
  ignore file;
  let lines = Util.Strutil.lines src in
  let defines : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let defined name = Hashtbl.mem defines name in
  let directives = ref [] in
  let diags = ref [] in
  let stack : cond_frame list ref = ref [] in
  let active () = List.for_all (fun f -> f.parent_active && f.this_active) !stack in
  let out = Buffer.create (String.length src) in
  let directive_of line lineno =
    let body = Util.Strutil.strip line in
    (* body starts with '#' *)
    let rest = Util.Strutil.strip (String.sub body 1 (String.length body - 1)) in
    let word, args =
      match String.index_opt rest ' ' with
      | Some i -> (String.sub rest 0 i, String.sub rest i (String.length rest - i))
      | None -> (rest, "")
    in
    match word with
    | "include" ->
      (match parse_include args with
       | Some (path, system) ->
         if active () then directives := (lineno, Include { path; system }) :: !directives
       | None -> diags := Printf.sprintf "line %d: malformed #include" lineno :: !diags)
    | "define" ->
      if active () then (
        match parse_define args with
        | Some (name, body, function_like) ->
          if not function_like then Hashtbl.replace defines name body;
          directives := (lineno, Define { name; body; function_like }) :: !directives
        | None -> diags := Printf.sprintf "line %d: malformed #define" lineno :: !diags)
    | "undef" ->
      if active () then begin
        Hashtbl.remove defines (Util.Strutil.strip args);
        directives := (lineno, Other "undef") :: !directives
      end
    | "ifdef" ->
      let name = Util.Strutil.strip args in
      if active () then directives := (lineno, Ifdef_like name) :: !directives;
      let on = defined name in
      stack := { parent_active = active (); this_active = on; taken = on } :: !stack
    | "ifndef" ->
      let name = Util.Strutil.strip args in
      let on = not (defined name) in
      stack := { parent_active = active (); this_active = on; taken = on } :: !stack
    | "if" ->
      let on = eval_condition ~defined args diags in
      stack := { parent_active = active (); this_active = on; taken = on } :: !stack
    | "elif" ->
      (match !stack with
       | [] -> diags := Printf.sprintf "line %d: #elif without #if" lineno :: !diags
       | f :: _ ->
         if f.taken then f.this_active <- false
         else begin
           let on = eval_condition ~defined args diags in
           f.this_active <- on;
           if on then f.taken <- true
         end)
    | "else" ->
      (match !stack with
       | [] -> diags := Printf.sprintf "line %d: #else without #if" lineno :: !diags
       | f :: _ ->
         f.this_active <- not f.taken;
         if f.this_active then f.taken <- true)
    | "endif" ->
      (match !stack with
       | [] -> diags := Printf.sprintf "line %d: #endif without #if" lineno :: !diags
       | _ :: rest -> stack := rest)
    | "pragma" -> if active () then directives := (lineno, Pragma (Util.Strutil.strip args)) :: !directives
    | other -> if active () then directives := (lineno, Other other) :: !directives
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if i > 0 then Buffer.add_char out '\n';
      let stripped = Util.Strutil.strip line in
      if stripped <> "" && stripped.[0] = '#' then directive_of stripped lineno
      else if active () then Buffer.add_string out line)
    lines;
  if !stack <> [] then diags := "unterminated #if block" :: !diags;
  { text = Buffer.contents out; directives = List.rev !directives; diagnostics = List.rev !diags }

(** Object-like macro substitution on the token table.  Each macro body
    is lexed once, through the unit's [names], so its kinds are the
    unit's; every token spliced in for a use takes the use's position.
    Recursive references expand up to a small depth bound to guarantee
    termination.  Without defines the table is returned as it is. *)
let expand_macros ~names ~(defines : (string * string) list) (tokens : Token.table) =
  if defines = [] then tokens
  else begin
    let bodies = Hashtbl.create 16 in
    List.iter
      (fun (name, body) ->
        Hashtbl.replace bodies name (Lexer.tokenize_with names ~file:"<macro>" body).tokens)
      defines;
    let out = Token.builder ~capacity:(Token.length tokens + 64) in
    (* the body's last token is its [Eof] *)
    let rec splice depth kind pos =
      match kind with
      | Token.Ident name when depth < 8 && Hashtbl.mem bodies name ->
        let body = Hashtbl.find bodies name in
        for j = 0 to Token.length body - 2 do
          splice (depth + 1) (Token.kind body j) pos
        done
      | _ -> Token.push out kind pos
    in
    Array.iteri (fun i kind -> splice 0 kind tokens.Token.positions.(i)) tokens.Token.kinds;
    Token.contents out ~file:tokens.Token.file
  end
