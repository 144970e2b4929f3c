(** Plain-text table rendering for experiment output.

    The benchmark harness regenerates every table/figure of the paper as a
    text table; keeping the renderer here means all experiments share one
    look and the tests can assert on the structure. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  aligns : align list;
  rows : string list list;
}

let make ~title ~header ?(aligns = []) () =
  let aligns =
    if aligns = [] then List.map (fun _ -> Left) header else aligns
  in
  { title; header; aligns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Table.add_row: row width mismatch";
  { t with rows = t.rows @ [ row ] }

let add_rows t rows = List.fold_left add_row t rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let widths t =
  let cols = List.length t.header in
  let w = Array.make cols 0 in
  let update row =
    List.iteri (fun i cell -> w.(i) <- Stdlib.max w.(i) (String.length cell)) row
  in
  update t.header;
  List.iter update t.rows;
  w

let render t =
  let w = widths t in
  let aligns = Array.of_list t.aligns in
  let line ch =
    "+" ^ String.concat "+" (Array.to_list (Array.map (fun n -> String.make (n + 2) ch) w)) ^ "+"
  in
  let row_str cells =
    let padded =
      List.mapi (fun i cell -> " " ^ pad aligns.(i) w.(i) cell ^ " ") cells
    in
    "|" ^ String.concat "|" padded ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (t.title ^ "\n");
  Buffer.add_string buf (line '-' ^ "\n");
  Buffer.add_string buf (row_str t.header ^ "\n");
  Buffer.add_string buf (line '=' ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (row_str r ^ "\n")) t.rows;
  Buffer.add_string buf (line '-' ^ "\n");
  Buffer.contents buf

let print t = print_string (render t)

(** GitHub-flavoured-markdown rendering of the same table. *)
let render_markdown t =
  let buf = Buffer.create 256 in
  let cell s =
    (* pipes would break the table structure *)
    String.concat "\\|" (String.split_on_char '|' s)
  in
  Buffer.add_string buf ("### " ^ t.title ^ "\n\n");
  Buffer.add_string buf ("| " ^ String.concat " | " (List.map cell t.header) ^ " |\n");
  Buffer.add_string buf
    ("|"
    ^ String.concat "|"
        (List.map
           (fun a -> match a with Left -> " --- " | Right -> " ---: ")
           t.aligns)
    ^ "|\n");
  List.iter
    (fun row ->
      Buffer.add_string buf ("| " ^ String.concat " | " (List.map cell row) ^ " |\n"))
    t.rows;
  Buffer.contents buf

(** RFC-4180-style CSV rendering (header row first). *)
let render_csv t =
  let buf = Buffer.create 256 in
  let field s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let row cells = String.concat "," (List.map field cells) ^ "\n" in
  Buffer.add_string buf (row t.header);
  List.iter (fun r -> Buffer.add_string buf (row r)) t.rows;
  Buffer.contents buf

type format = Text | Markdown | Csv

let render_as = function
  | Text -> render
  | Markdown -> render_markdown
  | Csv -> render_csv

(** Formatting helpers shared by experiment printers. *)
let fmt_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
let fmt_pct x = Printf.sprintf "%.1f%%" x
