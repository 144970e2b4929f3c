(** Tokens of the C/C++/CUDA subset, and the compact table a unit's
    tokens are kept in.

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

(** Spelling as it would appear in source (used by the pretty-printer and by
    token-stream round-trip tests). *)
let spelling = function
  | Ident s | Keyword s | Punct s -> s
  | Int_lit (_, raw) | Float_lit (_, raw) -> raw
  | String_lit s -> Printf.sprintf "%S" s
  | Char_lit c -> Printf.sprintf "'%s'" (Char.escaped c)
  | Eof -> ""

(* ------------------------------------------------------------------ *)
(* Positions                                                           *)
(* ------------------------------------------------------------------ *)

(* A position is one immediate int: [line - 1] in bits 32 to 62 and
   [col - 1] in bits 0 to 31.  Lines up to 2^31 and columns up to 2^32
   round-trip; in an input of fewer than 2^31 bytes neither count
   exceeds the input's length plus one. *)
let pack ~line ~col = ((line - 1) lsl 32) lor (col - 1)
let line_of_pos p = (p lsr 32) + 1
let col_of_pos p = (p land 0xffff_ffff) + 1

(* ------------------------------------------------------------------ *)
(* Token tables                                                        *)
(* ------------------------------------------------------------------ *)

(** A unit's tokens in source order: token [i] has kind [kinds.(i)] and
    position [positions.(i)].  Each distinct identifier, keyword and
    punctuator spelling of the unit is one shared [kind] value, and the
    file name is stored once, so a token costs two array slots plus its
    literal, if it has one.  A lexed table ends in one [Eof]. *)
type table = {
  file : string;
  kinds : kind array;
  positions : int array;  (** packed by [pack] *)
}

let length t = Array.length t.kinds
let kind t i = t.kinds.(i)
let line t i = line_of_pos t.positions.(i)
let col t i = col_of_pos t.positions.(i)
let loc t i = Loc.make ~file:t.file ~line:(line t i) ~col:(col t i)

(** [f i (kind t i)] for every token [i] of [t], keeping the [Some]s in
    token order. *)
let filter_mapi f t =
  let acc = ref [] in
  Array.iteri (fun i k -> match f i k with Some x -> acc := x :: !acc | None -> ()) t.kinds;
  List.rev !acc

(** A table under construction: arrays that double when full. *)
type builder = {
  mutable b_kinds : kind array;
  mutable b_positions : int array;
  mutable b_len : int;
}

let builder ~capacity =
  let capacity = Stdlib.max 16 capacity in
  { b_kinds = Array.make capacity Eof; b_positions = Array.make capacity 0; b_len = 0 }

let push b kind pos =
  if b.b_len = Array.length b.b_kinds then begin
    let grow a fill =
      let a' = Array.make (2 * Array.length a) fill in
      Array.blit a 0 a' 0 b.b_len;
      a'
    in
    b.b_kinds <- grow b.b_kinds Eof;
    b.b_positions <- grow b.b_positions 0
  end;
  b.b_kinds.(b.b_len) <- kind;
  b.b_positions.(b.b_len) <- pos;
  b.b_len <- b.b_len + 1

(** The table built so far, named [file] and trimmed to its length.
    [b] is left empty, holding no kind, and keeps its arrays for the
    next table. *)
let contents b ~file =
  let t =
    { file; kinds = Array.sub b.b_kinds 0 b.b_len;
      positions = Array.sub b.b_positions 0 b.b_len }
  in
  Array.fill b.b_kinds 0 b.b_len Eof;
  b.b_len <- 0;
  t

(* ------------------------------------------------------------------ *)
(* Interned spellings                                                  *)
(* ------------------------------------------------------------------ *)

(** The kinds of one unit's identifier, keyword and punctuator
    spellings, one value each: an open-addressed hash set of kinds
    ([Eof] marks a free slot), probed with the spelling still in the
    source text, so a spelling seen before costs no allocation. *)
type names = { mutable slots : kind array; mutable used : int }

let names () = { slots = Array.make 256 Eof; used = 0 }

let hash_sub s start len =
  let h = ref 0 in
  for i = start to start + len - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h lxor (!h lsr 17)

let key = function Ident s | Keyword s | Punct s -> s | _ -> ""

(* Top-level loops, not local closures: the probe runs once per token
   and must not allocate. *)
let rec equal_from k s start len i =
  i = len || (String.unsafe_get k i = String.unsafe_get s (start + i) && equal_from k s start len (i + 1))

let rec probe slots mask s start len i =
  match slots.(i) with
  | Eof -> i
  | k when (let k = key k in String.length k = len && equal_from k s start len 0) -> i
  | _ -> probe slots mask s start len ((i + 1) land mask)

(* The slot holding [s.[start .. start + len - 1]], or the free slot
   where it belongs. *)
let slot slots s start len =
  let mask = Array.length slots - 1 in
  probe slots mask s start len (hash_sub s start len land mask)

let intern names s start len make =
  let i = slot names.slots s start len in
  match names.slots.(i) with
  | Eof ->
    let k = make (String.sub s start len) in
    names.slots.(i) <- k;
    names.used <- names.used + 1;
    if 2 * names.used > Array.length names.slots then begin
      let old = names.slots in
      let slots = Array.make (2 * Array.length old) Eof in
      Array.iter
        (function
          | Eof -> ()
          | k ->
            let s = key k in
            slots.(slot slots s 0 (String.length s)) <- k)
        old;
      names.slots <- slots
    end;
    k
  | k -> k

(** The kind of the identifier or keyword [s.[start .. start + len - 1]]. *)
let intern_word names s start len =
  intern names s start len (fun w -> if is_keyword w then Keyword w else Ident w)

(** The kind of the punctuator [s.[start .. start + len - 1]]. *)
let intern_punct names s start len = intern names s start len (fun p -> Punct p)
