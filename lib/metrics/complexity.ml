(** McCabe cyclomatic complexity, computed the way Lizard computes it:
    CC = 1 + number of decision points, where decision points are [if],
    [while], [do-while], [for] (with a condition), [case] labels, ternary
    [?:], and the short-circuit operators [&&] and [||], the last three
    in every statement-level expression but a [case] label.  {!Census}
    counts them in its walk of each function.

    The paper's Figure 3 buckets functions into the classic ranges
    1-10 (low), 11-20 (moderate), 21-50 (risky), >50 (unstable). *)

type bucket = Low | Moderate | Risky | Unstable

let bucket_of_cc cc =
  if cc <= 10 then Low
  else if cc <= 20 then Moderate
  else if cc <= 50 then Risky
  else Unstable

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
  let defined = List.filter (fun f -> f.Cfront.Ast.f_body <> None) fns in
  let ccs =
    List.map2
      (fun fn (c : Census.counts) -> { fn; cc = c.Census.cc })
      defined (Census.of_functions defined).Census.counts
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

let summarize ~modname ~loc values =
  Telemetry.add "metrics.cc_functions" (List.length values);
  {
    modname;
    n_functions = List.length values;
    loc;
    cc_mean = Util.Stats.mean (List.map float_of_int values);
    cc_max = List.fold_left Stdlib.max 0 values;
    over_10 = List.length (List.filter (fun c -> c > 10) values);
    over_20 = List.length (List.filter (fun c -> c > 20) values);
    over_50 = List.length (List.filter (fun c -> c > 50) values);
  }
