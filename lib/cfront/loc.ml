(** Source locations.  Lines and columns are 1-based, as editors count. *)

type t = { file : string; line : int; col : int }

let make ~file ~line ~col = { file; line; col }
let dummy = { file = "<none>"; line = 0; col = 0 }
(* Concatenation rather than a format: the evidence journal builds one
   location string per finding and per witness step. *)
let to_string l = String.concat ":" [ l.file; string_of_int l.line; string_of_int l.col ]
let pp fmt l = Format.pp_print_string fmt (to_string l)
