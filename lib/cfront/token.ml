(** Tokens of the C/C++/CUDA subset.

    Keywords are kept as a distinct constructor (rather than identifiers)
    because several checkers (MISRA, style) classify directly on token
    kinds.  The raw spelling of literals is retained so that token-level
    rules (e.g. MISRA's octal-constant rule) can inspect the original
    text. *)

type kind =
  | Ident of string
  | Keyword of string
  | Int_lit of int64 * string  (** value, raw spelling *)
  | Float_lit of float * string
  | String_lit of string
  | Char_lit of char
  | Punct of string
  | Eof

type t = { kind : kind; loc : Loc.t }

let keywords =
  [
    "void"; "bool"; "char"; "short"; "int"; "long"; "float"; "double";
    "signed"; "unsigned"; "const"; "volatile"; "static"; "extern"; "inline";
    "struct"; "class"; "union"; "enum"; "typedef"; "namespace"; "using";
    "public"; "private"; "protected"; "template"; "typename"; "auto";
    "if"; "else"; "while"; "do"; "for"; "switch"; "case"; "default";
    "break"; "continue"; "return"; "goto"; "sizeof"; "new"; "delete";
    "true"; "false"; "nullptr"; "this"; "operator"; "virtual"; "override";
    "static_cast"; "dynamic_cast"; "const_cast"; "reinterpret_cast";
    "try"; "catch"; "throw";
    (* CUDA function/space qualifiers *)
    "__global__"; "__device__"; "__host__"; "__shared__"; "__constant__";
    "__restrict__";
  ]

let is_keyword =
  let table = Hashtbl.create 128 in
  List.iter (fun k -> Hashtbl.replace table k ()) keywords;
  Hashtbl.mem table

let kind_to_string = function
  | Ident s -> Printf.sprintf "ident %s" s
  | Keyword s -> Printf.sprintf "keyword %s" s
  | Int_lit (_, raw) -> Printf.sprintf "int %s" raw
  | Float_lit (_, raw) -> Printf.sprintf "float %s" raw
  | String_lit s -> Printf.sprintf "string %S" s
  | Char_lit c -> Printf.sprintf "char %C" c
  | Punct s -> Printf.sprintf "punct %s" s
  | Eof -> "eof"

let to_string t = kind_to_string t.kind

(** Spelling as it would appear in source (used by the pretty-printer and by
    token-stream round-trip tests). *)
let spelling = function
  | Ident s | Keyword s | Punct s -> s
  | Int_lit (_, raw) | Float_lit (_, raw) -> raw
  | String_lit s -> Printf.sprintf "%S" s
  | Char_lit c -> Printf.sprintf "'%s'" (Char.escaped c)
  | Eof -> ""
