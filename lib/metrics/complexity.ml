(** McCabe cyclomatic complexity, computed the way Lizard computes it:
    CC = 1 + number of decision points, where decision points are [if],
    [while], [do-while], [for] (with a condition), [case] labels, ternary
    [?:], and the short-circuit operators [&&] and [||].

    The paper's Figure 3 buckets functions into the classic ranges
    1-10 (low), 11-20 (moderate), 21-50 (risky), >50 (unstable). *)

type bucket = Low | Moderate | Risky | Unstable

let bucket_of_cc cc =
  if cc <= 10 then Low
  else if cc <= 20 then Moderate
  else if cc <= 50 then Risky
  else Unstable

let decisions_in_expr expr =
  let n = ref 0 in
  Cfront.Ast.iter_exprs_of_expr
    (fun e ->
      match e.Cfront.Ast.e with
      | Cfront.Ast.Binary ((Cfront.Ast.Land | Cfront.Ast.Lor), _, _) -> incr n
      | Cfront.Ast.Ternary _ -> incr n
      | _ -> ())
    expr;
  !n

(* Counts [&&]/[||]/[?:] in every condition and expression statement,
   the way Lizard and most modern tools do. *)
let of_stmt body =
  let n = ref 0 in
  let count_expr e = n := !n + decisions_in_expr e in
  Cfront.Ast.iter_stmts
    (fun s ->
      match s.Cfront.Ast.s with
      | Cfront.Ast.Sif { cond; _ } -> incr n; count_expr cond
      | Cfront.Ast.Swhile (c, _) | Cfront.Ast.Sdo_while (_, c) ->
        incr n;
        count_expr c
      | Cfront.Ast.Sfor { cond; init; update; _ } ->
        (match cond with
         | Some c -> incr n; count_expr c
         | None -> ());
        (match init with
         | Cfront.Ast.Fi_expr e -> count_expr e
         | Cfront.Ast.Fi_decl ds ->
           List.iter (fun d -> Option.iter count_expr d.Cfront.Ast.v_init) ds
         | Cfront.Ast.Fi_empty -> ());
        Option.iter count_expr update
      | Cfront.Ast.Scase _ -> incr n
      | Cfront.Ast.Sexpr e -> count_expr e
      | Cfront.Ast.Sreturn (Some e) -> count_expr e
      | Cfront.Ast.Sdecl ds ->
        List.iter (fun d -> Option.iter count_expr d.Cfront.Ast.v_init) ds
      | Cfront.Ast.Sswitch (e, _) -> count_expr e
      | _ -> ())
    body;
  !n + 1

let of_func (fn : Cfront.Ast.func) =
  match fn.Cfront.Ast.f_body with
  | None -> 1
  | Some body -> of_stmt body

(** Maximum control-structure nesting depth of a body — the other face of
    "low complexity": deeply nested code resists review and MC/DC
    testing even at moderate CC. *)
let nesting_depth body =
  let rec depth (s : Cfront.Ast.stmt) =
    match s.Cfront.Ast.s with
    | Cfront.Ast.Sblock ss -> List.fold_left (fun a t -> Stdlib.max a (depth t)) 0 ss
    | Cfront.Ast.Sif { then_; else_; _ } ->
      1
      + Stdlib.max (depth then_)
          (match else_ with Some e -> depth e | None -> 0)
    | Cfront.Ast.Swhile (_, b) | Cfront.Ast.Sdo_while (b, _)
    | Cfront.Ast.Sfor { body = b; _ } | Cfront.Ast.Sswitch (_, b) ->
      1 + depth b
    | Cfront.Ast.Slabel (_, b) -> depth b
    | Cfront.Ast.Stry { body = b; catches } ->
      1
      + List.fold_left (fun a (_, h) -> Stdlib.max a (depth h)) (depth b) catches
    | _ -> 0
  in
  depth body

let nesting_of_func (fn : Cfront.Ast.func) =
  match fn.Cfront.Ast.f_body with None -> 0 | Some body -> nesting_depth body

type func_cc = { fn : Cfront.Ast.func; cc : int }

let of_functions fns =
  let ccs =
    List.map
      (fun fn -> { fn; cc = of_func fn })
      (List.filter (fun f -> f.Cfront.Ast.f_body <> None) fns)
  in
  Telemetry.add "metrics.cc_functions" (List.length ccs);
  ccs

type module_summary = {
  modname : string;
  n_functions : int;
  loc : int;
  cc_mean : float;
  cc_max : int;
  over_10 : int;
  over_20 : int;
  over_50 : int;
}

let summarize ~modname ~loc fns =
  let ccs = of_functions fns in
  let values = List.map (fun c -> c.cc) ccs in
  {
    modname;
    n_functions = List.length ccs;
    loc;
    cc_mean = Util.Stats.mean (List.map float_of_int values);
    cc_max = List.fold_left Stdlib.max 0 values;
    over_10 = List.length (List.filter (fun c -> c > 10) values);
    over_20 = List.length (List.filter (fun c -> c > 20) values);
    over_50 = List.length (List.filter (fun c -> c > 50) values);
  }
