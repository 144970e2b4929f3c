(** Lines-of-code accounting, per file and per module.

    [physical] counts non-blank lines (the figure Lizard and the paper
    report); [comment] counts lines carrying a comment; [logical] counts
    statement nodes. *)

type counts = {
  physical : int;
  blank : int;
  comment : int;
  logical : int;
  total : int;  (** raw line count *)
}

let zero = { physical = 0; blank = 0; comment = 0; logical = 0; total = 0 }

let add a b =
  {
    physical = a.physical + b.physical;
    blank = a.blank + b.blank;
    comment = a.comment + b.comment;
    logical = a.logical + b.logical;
    total = a.total + b.total;
  }

let of_tu (tu : Cfront.Ast.tu) =
  let lines = Util.Strutil.lines tu.raw_source in
  let total = List.length lines in
  let blank =
    List.length (List.filter (fun l -> Util.Strutil.strip l = "") lines)
  in
  let logical = ref 0 in
  let executable (s : Cfront.Ast.stmt) =
    match s.Cfront.Ast.s with
    | Cfront.Ast.Sblock _ | Cfront.Ast.Slabel _ | Cfront.Ast.Sempty
    | Cfront.Ast.Scase _ | Cfront.Ast.Sdefault -> false
    | _ -> true
  in
  List.iter
    (fun fn ->
      match fn.Cfront.Ast.f_body with
      | None -> ()
      | Some body ->
        Cfront.Ast.iter_stmts (fun s -> if executable s then incr logical) body)
    (Cfront.Ast.functions_of_tu tu);
  {
    physical = total - blank;
    blank;
    comment = tu.comment_lines;
    logical = !logical;
    total;
  }

let of_files (pfs : Cfront.Project.parsed_file list) =
  List.fold_left (fun acc pf -> add acc (of_tu (Cfront.Project.tu pf))) zero pfs

(** Comment density: comment lines / physical lines. *)
let comment_density c =
  if c.physical = 0 then 0.0 else float_of_int c.comment /. float_of_int c.physical
