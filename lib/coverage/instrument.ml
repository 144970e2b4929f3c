(** Static enumeration of coverage points.

    For each function we enumerate:
    - executable statements (by statement id),
    - boolean decisions (if/while/do-while/for conditions and ternaries),
      each with its ordered list of leaf conditions for MC/DC,
    - switch statements with their clause counts.

    A "condition" is a leaf of the decision's [&&]/[||] tree ([!] is
    transparent).  A decision with a single condition still participates in
    MC/DC (its condition is covered by observing both outcomes). *)

type decision = {
  d_eid : int;  (** expression id of the whole controlling expression *)
  d_loc : Cfront.Loc.t;
  conditions : int list;  (** eids of leaf conditions, in evaluation order *)
}

type switch_point = {
  sw_sid : int;
  sw_loc : Cfront.Loc.t;
  clauses : int;  (** number of case labels plus default if present *)
  has_default : bool;
}

type func_points = {
  fp_name : string;  (** qualified *)
  fp_file : string;
  fp_loc : Cfront.Loc.t;
  stmts : int list;  (** sids of executable statements *)
  decisions : decision list;
  switches : switch_point list;
}

(** Leaf conditions of a decision expression, in evaluation order. *)
let rec leaves_of (e : Cfront.Ast.expr) =
  match e.Cfront.Ast.e with
  | Cfront.Ast.Binary ((Cfront.Ast.Land | Cfront.Ast.Lor), a, b) ->
    leaves_of a @ leaves_of b
  | Cfront.Ast.Unary (Cfront.Ast.Lnot, a) -> leaves_of a
  | _ -> [ e.Cfront.Ast.eid ]

let decision_of (e : Cfront.Ast.expr) =
  { d_eid = e.Cfront.Ast.eid; d_loc = e.Cfront.Ast.eloc; conditions = leaves_of e }

(** Statements that count for statement coverage.  Blocks, labels and case
    markers are structural; everything else is executable. *)
let is_executable (s : Cfront.Ast.stmt) =
  match s.Cfront.Ast.s with
  | Cfront.Ast.Sblock _ | Cfront.Ast.Slabel _ | Cfront.Ast.Scase _
  | Cfront.Ast.Sdefault | Cfront.Ast.Sempty -> false
  | _ -> true

let ternary_decisions_under_stmt stmt =
  let acc = ref [] in
  Cfront.Ast.iter_exprs_of_stmt
    (fun e ->
      match e.Cfront.Ast.e with
      | Cfront.Ast.Ternary (c, _, _) -> acc := decision_of c :: !acc
      | _ -> ())
    stmt;
  List.rev !acc

let of_func ~file (fn : Cfront.Ast.func) =
  match fn.Cfront.Ast.f_body with
  | None -> None
  | Some body ->
    let stmts = ref [] in
    let decisions = ref [] in
    let switches = ref [] in
    Cfront.Ast.iter_stmts
      (fun s ->
        if is_executable s then stmts := s.Cfront.Ast.sid :: !stmts;
        match s.Cfront.Ast.s with
        | Cfront.Ast.Sif { cond; _ } -> decisions := decision_of cond :: !decisions
        | Cfront.Ast.Swhile (c, _) | Cfront.Ast.Sdo_while (_, c) ->
          decisions := decision_of c :: !decisions
        | Cfront.Ast.Sfor { cond = Some c; _ } -> decisions := decision_of c :: !decisions
        | Cfront.Ast.Sswitch (_, sw_body) ->
          let cases = ref 0 and has_default = ref false in
          Cfront.Ast.iter_stmts
            (fun t ->
              match t.Cfront.Ast.s with
              | Cfront.Ast.Scase _ -> incr cases
              | Cfront.Ast.Sdefault -> has_default := true
              | _ -> ())
            sw_body;
          switches :=
            { sw_sid = s.Cfront.Ast.sid; sw_loc = s.Cfront.Ast.sloc;
              clauses = !cases + (if !has_default then 1 else 0);
              has_default = !has_default }
            :: !switches
        | _ -> ())
      body;
    let ternaries = ternary_decisions_under_stmt body in
    Some
      {
        fp_name = Cfront.Ast.qualified_name fn;
        fp_file = file;
        fp_loc = fn.Cfront.Ast.f_loc;
        stmts = List.rev !stmts;
        decisions = List.rev !decisions @ ternaries;
        switches = List.rev !switches;
      }

let of_tu (tu : Cfront.Ast.tu) =
  List.filter_map (of_func ~file:tu.Cfront.Ast.tu_file) (Cfront.Ast.functions_of_tu tu)
