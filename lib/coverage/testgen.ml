(** Gap-driven test generation — closing Observation 10's loop.

    The paper concludes that "additional test cases are required to reach
    much higher coverage (preferably 100%)".  This module generates those
    test cases automatically for a tractable, common class of gaps:

    - {b uncalled functions} whose parameters are all scalars: call them
      with a small boundary-value battery;
    - {b uncovered switch clauses} whose scrutinee is (an arithmetic
      function of) a parameter and whose case labels are integer
      constants: call the enclosing function once per missing label value;
    - {b one-sided decisions} that compare a parameter against an integer
      constant: call with values on both sides of the constant.

    The synthesized driver is C source; running it through the same
    (bytecode) engine measurably raises statement/branch coverage, which the
    harness reports as before/after. *)

type call_plan = {
  target : string;  (** simple function name to call *)
  args : int list list;  (** one list of int arguments per synthesized call *)
  reason : string;
}

let boundary_values = [ -1; 0; 1; 2; 7 ]

(* Scalar parameter battery for a function: the same boundary value in
   every position, one call per boundary value. *)
let battery (fn : Cfront.Ast.func) ~reason =
  let n = List.length fn.Cfront.Ast.f_params in
  {
    target = fn.Cfront.Ast.f_name;
    args = List.map (fun v -> List.init n (fun _ -> v)) boundary_values;
    reason;
  }

let all_scalar_params (fn : Cfront.Ast.func) =
  fn.Cfront.Ast.f_params <> []
  && List.for_all
       (fun (p : Cfront.Ast.param) ->
         match p.Cfront.Ast.p_type with
         | Cfront.Ast.Tint _ | Cfront.Ast.Tfloat | Cfront.Ast.Tdouble
         | Cfront.Ast.Tbool | Cfront.Ast.Tchar -> true
         | _ -> false)
       fn.Cfront.Ast.f_params

(* Does [e] mention parameter [p] and only constants otherwise? *)
let rec param_driven params (e : Cfront.Ast.expr) =
  match e.Cfront.Ast.e with
  | Cfront.Ast.Id n -> if List.mem n params then Some n else None
  | Cfront.Ast.Binary (_, a, b) -> (
      match (param_driven params a, param_driven params b) with
      | Some n, None | None, Some n -> Some n
      | _ -> None)
  | Cfront.Ast.Unary (_, a) | Cfront.Ast.C_cast (_, a) -> param_driven params a
  | _ -> None

(* Case labels of switches on parameters, plus decision constants compared
   to parameters. *)
let interesting_values (fn : Cfront.Ast.func) =
  match fn.Cfront.Ast.f_body with
  | None -> []
  | Some body ->
    let params = List.map (fun p -> p.Cfront.Ast.p_name) fn.Cfront.Ast.f_params in
    let acc = ref [] in
    Cfront.Ast.iter_stmts
      (fun s ->
        match s.Cfront.Ast.s with
        | Cfront.Ast.Sswitch (scrutinee, sw_body)
          when param_driven params scrutinee <> None ->
          Cfront.Ast.iter_stmts
            (fun t ->
              match t.Cfront.Ast.s with
              | Cfront.Ast.Scase { e = Cfront.Ast.Int_const v; _ } ->
                acc := Int64.to_int v :: !acc
              | _ -> ())
            sw_body;
          (* one value outside every label for the default clause *)
          acc := 99 :: !acc
        | _ -> ())
      body;
    Cfront.Ast.iter_exprs_of_func
      (fun e ->
        match e.Cfront.Ast.e with
        | Cfront.Ast.Binary ((Cfront.Ast.Lt | Cfront.Ast.Le | Cfront.Ast.Gt
                             | Cfront.Ast.Ge | Cfront.Ast.Eq | Cfront.Ast.Ne),
                             a, { e = Cfront.Ast.Int_const v; _ })
          when param_driven params a <> None ->
          let v = Int64.to_int v in
          acc := (v - 1) :: v :: (v + 1) :: !acc
        | _ -> ())
      fn;
    List.sort_uniq compare !acc

(** Build call plans for the coverage gaps of [tus] under [collector]. *)
let plan_for_gaps (collector : Collector.t) (tus : Cfront.Ast.tu list) ~measured =
  let plans = ref [] in
  List.iter
    (fun (tu : Cfront.Ast.tu) ->
      if List.mem tu.Cfront.Ast.tu_file measured then
        List.iter
          (fun (fn : Cfront.Ast.func) ->
            if fn.Cfront.Ast.f_body <> None && all_scalar_params fn then begin
              let qname = Cfront.Ast.qualified_name fn in
              let called = Collector.function_called collector qname in
              let values = interesting_values fn in
              if not called then
                plans := battery fn ~reason:"function never called" :: !plans
              else if values <> [] then begin
                (* values in the first parameter, defaults elsewhere *)
                let n = List.length fn.Cfront.Ast.f_params in
                plans :=
                  {
                    target = fn.Cfront.Ast.f_name;
                    args =
                      List.map
                        (fun v -> v :: List.init (n - 1) (fun _ -> 1))
                        values;
                    reason = "uncovered clauses reachable via parameter values";
                  }
                  :: !plans
              end
            end)
          (Cfront.Ast.functions_of_tu tu))
    tus;
  List.rev !plans

(** Render the call plans as a C driver: one [gap_case_N] function per
    synthesized call so that a fault in one probe (boundary values do hit
    unchecked error paths) does not mask the coverage from the others.
    Returns the source and the entry names. *)
let driver_of_plans plans =
  let buf = Buffer.create 1024 in
  let entries = ref [] in
  Buffer.add_string buf "// synthesized by Coverage.Testgen to close coverage gaps\n";
  let case = ref 0 in
  List.iter
    (fun p ->
      Buffer.add_string buf (Printf.sprintf "// %s: %s\n" p.target p.reason);
      List.iter
        (fun args ->
          let name = Printf.sprintf "gap_case_%d" !case in
          incr case;
          entries := name :: !entries;
          Buffer.add_string buf
            (Printf.sprintf "int %s() {\n  return (int)%s(%s);\n}\n" name p.target
               (String.concat ", " (List.map string_of_int args))))
        p.args)
    plans;
  (Buffer.contents buf, List.rev !entries)

type improvement = {
  before_stmt : float;
  before_branch : float;
  after_stmt : float;
  after_branch : float;
  plans : call_plan list;
  driver : string;
}

(** Measure, synthesize, re-measure.  [entry] is the original test entry
    point; the synthesized calls run afterwards in the same collector. *)
let close_gaps ~entry ~measured (tus : Cfront.Ast.tu list) =
  let score collector =
    let files =
      List.filter_map
        (fun (tu : Cfront.Ast.tu) ->
          if List.mem tu.Cfront.Ast.tu_file measured then
            Some
              (Collector.score_file collector ~file:tu.Cfront.Ast.tu_file
                 (Instrument.of_tu tu))
          else None)
        tus
    in
    let stmt, branch, _ = Collector.averages files in
    (stmt, branch)
  in
  (* pass 1: the original tests *)
  let c1 = Collector.create () in
  let env1 = Runtime.create ~hooks:(Collector.hooks c1) () in
  (match Exec.run env1 (Compile.compile tus) ~entry ~args:[] with
   | Ok _ -> ()
   | Error e -> failwith ("baseline run failed: " ^ e));
  let before_stmt, before_branch = score c1 in
  let plans = plan_for_gaps c1 tus ~measured in
  let driver, entries = driver_of_plans plans in
  (* pass 2: original tests + synthesized probes, fresh collector *)
  let gap_tu = Cfront.Parser.parse_file ~file:"testgen/gap_driver.c" driver in
  let c2 = Collector.create () in
  let env2 = Runtime.create ~hooks:(Collector.hooks c2) () in
  (* the baseline entry first, then each probe in isolation: a probe may
     legitimately fault while exercising an unchecked error path, and
     coverage reached before the fault still counts *)
  let prog2 = Compile.compile (tus @ [ gap_tu ]) in
  (match Exec.run_entries env2 prog2 ~entries:(entry :: entries) with
   | (_, Error e) :: _ -> failwith ("baseline rerun failed: " ^ e)
   | _ -> ());
  let after_stmt, after_branch = score c2 in
  { before_stmt; before_branch; after_stmt; after_branch; plans; driver }
