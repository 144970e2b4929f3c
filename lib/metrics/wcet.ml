(** Static WCET-analyzability classification.

    The paper's Observation 1 argues that high complexity "challenges ...
    timing analysis (e.g., worst-case execution time)".  This module makes
    that argument checkable: a function is WCET-analyzable by standard
    static timing analysis when every loop has a bound derivable without
    data knowledge and the call graph below it is recursion-free.

    Classification per function:
    - [Analyzable]: all loops constant-bounded, no goto, no recursion;
    - [Parametric]: loops bounded by parameters/variables (bound exists
      but depends on inputs — analyzable given input ranges);
    - [Unanalyzable]: while-loops with non-counter conditions, gotos that
      can form cycles, or recursion. *)

type loop_bound =
  | Constant of int
  | Parametric of string  (** bound expression variable *)
  | Unknown

type classification = Analyzable | Parametric_bound | Unanalyzable

type func_report = {
  fn : string;
  classification : classification;
  loops : int;
  constant_loops : int;
  parametric_loops : int;
  unknown_loops : int;
  has_goto : bool;
  recursive : bool;
  wcet_expr : string;  (** symbolic statement-count bound, best effort *)
}

(* Recognize the canonical counted loop: for (i = 0; i < BOUND; ++i). *)
let for_bound (init : Cfront.Ast.for_init) cond update =
  let counter =
    match init with
    | Cfront.Ast.Fi_decl [ d ] -> Some d.Cfront.Ast.v_name
    | Cfront.Ast.Fi_expr { e = Cfront.Ast.Assign (Cfront.Ast.A_eq, { e = Cfront.Ast.Id n; _ }, _); _ } ->
      Some n
    | _ -> None
  in
  let steps =
    match update with
    | Some { Cfront.Ast.e = Cfront.Ast.Unary ((Cfront.Ast.Pre_inc | Cfront.Ast.Pre_dec), { e = Cfront.Ast.Id n; _ }); _ }
    | Some { Cfront.Ast.e = Cfront.Ast.Postfix (_, { e = Cfront.Ast.Id n; _ }); _ }
    | Some { Cfront.Ast.e = Cfront.Ast.Assign ((Cfront.Ast.A_add | Cfront.Ast.A_sub), { e = Cfront.Ast.Id n; _ }, _); _ } ->
      Some n
    | _ -> None
  in
  match (counter, steps, cond) with
  | Some c, Some s, Some { Cfront.Ast.e = Cfront.Ast.Binary ((Cfront.Ast.Lt | Cfront.Ast.Le | Cfront.Ast.Gt | Cfront.Ast.Ge),
                                                  { e = Cfront.Ast.Id lc; _ }, bound); _ }
    when c = s && c = lc -> (
      (* a bound made only of names, constants and arithmetic is a valid
         parametric bound (e.g. [width * height]) *)
      let rec affine e =
        match e.Cfront.Ast.e with
        | Cfront.Ast.Int_const _ | Cfront.Ast.Id _
        | Cfront.Ast.Member _ -> true
        | Cfront.Ast.Binary ((Cfront.Ast.Add | Cfront.Ast.Sub | Cfront.Ast.Mul
                             | Cfront.Ast.Div), a, b) ->
          affine a && affine b
        | Cfront.Ast.Unary (Cfront.Ast.Neg, a) | Cfront.Ast.C_cast (_, a) -> affine a
        | _ -> false
      in
      match bound.Cfront.Ast.e with
      | Cfront.Ast.Int_const n -> Constant (Int64.to_int n)
      | Cfront.Ast.Id v -> Parametric v
      | Cfront.Ast.Member { field; _ } -> Parametric field
      | _ when affine bound ->
        Parametric (Cfront.Pretty.expr_str bound)
      | _ -> Unknown)
  | _ -> Unknown

(* while (v > 0) { ... v -= 1; } style counters *)
let while_bound cond body =
  match cond with
  | { Cfront.Ast.e = Cfront.Ast.Binary ((Cfront.Ast.Gt | Cfront.Ast.Ge | Cfront.Ast.Ne),
                                        { e = Cfront.Ast.Id v; _ }, _); _ } ->
    let decremented = ref false in
    Cfront.Ast.iter_stmts
      (fun s ->
        match s.Cfront.Ast.s with
        | Cfront.Ast.Sexpr
            { e = Cfront.Ast.Assign ((Cfront.Ast.A_sub | Cfront.Ast.A_add), { e = Cfront.Ast.Id n; _ }, _); _ }
        | Cfront.Ast.Sexpr
            { e = Cfront.Ast.Unary ((Cfront.Ast.Pre_dec | Cfront.Ast.Pre_inc), { e = Cfront.Ast.Id n; _ }); _ }
        | Cfront.Ast.Sexpr { e = Cfront.Ast.Postfix (_, { e = Cfront.Ast.Id n; _ }); _ }
          when n = v ->
          decremented := true
        | _ -> ())
      body;
    if !decremented then Parametric v else Unknown
  | _ -> Unknown

let of_func ~recursive_names (fn : Cfront.Ast.func) =
  match fn.Cfront.Ast.f_body with
  | None -> None
  | Some body ->
    let loops = ref [] in
    let has_goto = ref false in
    Cfront.Ast.iter_stmts
      (fun s ->
        match s.Cfront.Ast.s with
        | Cfront.Ast.Sfor { init; cond; update; _ } ->
          loops := for_bound init cond update :: !loops
        | Cfront.Ast.Swhile (c, b) -> loops := while_bound c b :: !loops
        | Cfront.Ast.Sdo_while (b, c) -> loops := while_bound c b :: !loops
        | Cfront.Ast.Sgoto _ -> has_goto := true
        | _ -> ())
      body;
    let qname = Cfront.Ast.qualified_name fn in
    let recursive = List.mem qname recursive_names in
    let count p = List.length (List.filter p !loops) in
    let constant_loops = count (function Constant _ -> true | _ -> false) in
    let parametric_loops = count (function Parametric _ -> true | _ -> false) in
    let unknown_loops = count (function Unknown -> true | _ -> false) in
    let classification =
      if recursive || unknown_loops > 0 then Unanalyzable
      else if parametric_loops > 0 then Parametric_bound
      else Analyzable
    in
    (* symbolic bound: product of loop bounds (nesting ignored: an upper
       bound on the looseness, not the tightness) *)
    let wcet_expr =
      if classification = Unanalyzable then "unbounded"
      else
        let parts =
          List.filter_map
            (function
              | Constant n -> Some (string_of_int n)
              | Parametric v -> Some v
              | Unknown -> None)
            !loops
        in
        if parts = [] then "O(1)" else "O(" ^ String.concat " * " parts ^ ")"
    in
    Some
      {
        fn = qname;
        classification;
        loops = List.length !loops;
        constant_loops;
        parametric_loops;
        unknown_loops;
        has_goto = !has_goto;
        recursive;
        wcet_expr;
      }

type summary = {
  total : int;
  analyzable : int;
  parametric : int;
  unanalyzable : int;
}

let of_functions fns =
  let graph = Cfront.Callgraph.build fns in
  let recursive_names = Cfront.Callgraph.recursive_functions graph in
  List.filter_map (of_func ~recursive_names) fns

let summarize reports =
  let count c = List.length (List.filter (fun r -> r.classification = c) reports) in
  {
    total = List.length reports;
    analyzable = count Analyzable;
    parametric = count Parametric_bound;
    unanalyzable = count Unanalyzable;
  }
