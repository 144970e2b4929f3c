(** Halstead software-science metrics and the derived maintainability
    index.

    Computed from the token stream, as classic tools do: operators are
    keywords and punctuators (excluding grouping-only tokens), operands
    are identifiers and literals.  The maintainability index uses the
    common SEI formula
    [171 - 5.2 ln V - 0.23 CC - 16.2 ln LOC], rescaled to 0..100. *)

type t = {
  n1 : int;  (** distinct operators *)
  n2 : int;  (** distinct operands *)
  big_n1 : int;  (** total operators *)
  big_n2 : int;  (** total operands *)
  vocabulary : int;
  length : int;
  volume : float;
  difficulty : float;
  effort : float;
  estimated_bugs : float;
}

let grouping_puncts = [ "("; ")"; "{"; "}"; ";"; ","; "["; "]" ]

let non_operator_keywords = [ "true"; "false"; "nullptr" ]

(* Distinct and total operators and operands, tallied token by token. *)
type tally = {
  ops : (string, unit) Hashtbl.t;
  opnds : (string, unit) Hashtbl.t;
  mutable total_ops : int;
  mutable total_opnds : int;
}

let tally () =
  { ops = Hashtbl.create 32; opnds = Hashtbl.create 64; total_ops = 0; total_opnds = 0 }

let count t = function
  | Cfront.Token.Keyword k when not (List.mem k non_operator_keywords) ->
    Hashtbl.replace t.ops k ();
    t.total_ops <- t.total_ops + 1
  | Cfront.Token.Punct p when not (List.mem p grouping_puncts) ->
    Hashtbl.replace t.ops p ();
    t.total_ops <- t.total_ops + 1
  | Cfront.Token.Ident name ->
    Hashtbl.replace t.opnds name ();
    t.total_opnds <- t.total_opnds + 1
  | Cfront.Token.Int_lit (_, raw) | Cfront.Token.Float_lit (_, raw) ->
    Hashtbl.replace t.opnds raw ();
    t.total_opnds <- t.total_opnds + 1
  | Cfront.Token.String_lit s ->
    Hashtbl.replace t.opnds ("\"" ^ s) ();
    t.total_opnds <- t.total_opnds + 1
  | Cfront.Token.Char_lit c ->
    Hashtbl.replace t.opnds (Printf.sprintf "'%c'" c) ();
    t.total_opnds <- t.total_opnds + 1
  | Cfront.Token.Keyword _ | Cfront.Token.Punct _ | Cfront.Token.Eof -> ()

(* tokens [lo, hi) of a table *)
let count_range t toks lo hi =
  for i = lo to hi - 1 do
    count t (Cfront.Token.kind toks i)
  done

let count_all t toks = count_range t toks 0 (Cfront.Token.length toks)

let of_tally { ops; opnds; total_ops; total_opnds } =
  let n1 = Hashtbl.length ops and n2 = Hashtbl.length opnds in
  let big_n1 = total_ops and big_n2 = total_opnds in
  let vocabulary = n1 + n2 in
  let length = big_n1 + big_n2 in
  let volume =
    if vocabulary = 0 then 0.0
    else float_of_int length *. (log (float_of_int vocabulary) /. log 2.0)
  in
  let difficulty =
    if n2 = 0 then 0.0
    else float_of_int n1 /. 2.0 *. (float_of_int big_n2 /. float_of_int n2)
  in
  {
    n1;
    n2;
    big_n1;
    big_n2;
    vocabulary;
    length;
    volume;
    difficulty;
    effort = difficulty *. volume;
    estimated_bugs = volume /. 3000.0;
  }

let of_tokens toks =
  let t = tally () in
  count_all t toks;
  of_tally t

let of_tu (tu : Cfront.Ast.tu) = of_tokens tu.Cfront.Ast.tokens

let of_files (pfs : Cfront.Project.parsed_file list) =
  let t = tally () in
  List.iter (fun pf -> count_all t pf.Cfront.Project.tu.Cfront.Ast.tokens) pfs;
  of_tally t

(** SEI maintainability index, clamped to [0, 100].  Above ~85 is
    conventionally "highly maintainable", below 65 "difficult to
    maintain". *)
let maintainability_index ~volume ~mean_cc ~loc =
  if loc <= 0 then 100.0
  else
    let v = Stdlib.max 1.0 volume in
    let raw =
      171.0 -. (5.2 *. log v) -. (0.23 *. mean_cc) -. (16.2 *. log (float_of_int loc))
    in
    Util.Stats.clamp ~lo:0.0 ~hi:100.0 (raw *. 100.0 /. 171.0)

(* The first token at or after [line], or the table's length: a binary
   search, since a table's lines never decrease. *)
let first_on_or_after toks line =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Cfront.Token.line toks mid < line then go (mid + 1) hi else go lo mid
  in
  go 0 (Cfront.Token.length toks)

(** Halstead metrics of one function, from the tokens inside its line
    span. *)
let of_func ~(tu : Cfront.Ast.tu) (fn : Cfront.Ast.func) =
  let toks = tu.Cfront.Ast.tokens in
  let t = tally () in
  count_range t toks
    (first_on_or_after toks fn.Cfront.Ast.f_loc.Cfront.Loc.line)
    (first_on_or_after toks (fn.Cfront.Ast.f_end_line + 1));
  of_tally t

(** Maintainability index of one function. *)
let mi_of_func ~tu (fn : Cfront.Ast.func) =
  let h = of_func ~tu fn in
  let cc = float_of_int (Complexity.of_func fn) in
  let loc =
    Stdlib.max 1 (fn.Cfront.Ast.f_end_line - fn.Cfront.Ast.f_loc.Cfront.Loc.line + 1)
  in
  maintainability_index ~volume:h.volume ~mean_cc:cc ~loc

type module_report = {
  modname : string;
  halstead : t;  (** whole-module aggregate *)
  mi : float;  (** mean per-function maintainability index, as tools report *)
}

let report_of_module ~modname (pfs : Cfront.Project.parsed_file list) =
  let h = of_files pfs in
  let mis =
    List.concat_map
      (fun pf ->
        let tu = pf.Cfront.Project.tu in
        List.filter_map
          (fun (fn : Cfront.Ast.func) ->
            if fn.Cfront.Ast.f_body <> None then Some (mi_of_func ~tu fn) else None)
          (Cfront.Ast.functions_of_tu tu))
      pfs
  in
  { modname; halstead = h; mi = Util.Stats.mean mis }
