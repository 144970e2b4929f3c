(* Tests for the dataflow layer: CFG construction goldens per control
   construct, worklist fixpoint convergence, the concrete analyses, and
   the flow-sensitive upgrades of MISRA 2.1/2.2/9.1 — including the
   dead-store-across-a-branch violation the syntactic rule missed and
   the assigned-on-all-paths false positive it no longer reports. *)

module Cfg = Dataflow.Cfg
module Analyses = Dataflow.Analyses
module Framework = Dataflow.Framework

let parse_fn src =
  let tu = Cfront.Parser.parse_file ~file:"t.cc" src in
  match
    List.find_opt
      (fun (f : Cfront.Ast.func) -> f.Cfront.Ast.f_body <> None)
      (Cfront.Ast.functions_of_tu tu)
  with
  | Some fn -> fn
  | None -> Alcotest.failf "no defined function in: %s" src

let cfg_of src = Cfg.of_func (parse_fn src)

(* ------------------------------------------------------------------ *)
(* CFG construction goldens                                            *)
(* ------------------------------------------------------------------ *)

let check_shape name src ~blocks ~edges () =
  let cfg = cfg_of src in
  Alcotest.(check int) (name ^ ": blocks") blocks (Cfg.n_blocks cfg);
  Alcotest.(check int) (name ^ ": edges") edges (Cfg.n_edges cfg)

let shape name src ~blocks ~edges =
  Alcotest.test_case name `Quick (check_shape name src ~blocks ~edges)

(* Every function gets an entry block, an exit block, and a trailing
   dead block after each unconditional jump (so unreachable statements
   have somewhere to live); the goldens below count those too. *)
let cfg_cases =
  [
    shape "straight line" "int F(int a) { int x = 1; return x; }"
      ~blocks:3 ~edges:2;
    shape "if/else"
      "int F(int a) { int x; if (a > 0) { x = 1; } else { x = 2; } return x; }"
      ~blocks:7 ~edges:6;
    shape "while loop" "int F(int a) { while (a > 0) { a = a - 1; } return a; }"
      ~blocks:7 ~edges:6;
    shape "for loop"
      "int F(int a) { int s = 0; for (int i = 0; i < a; ++i) { s = s + i; } return s; }"
      ~blocks:8 ~edges:7;
    shape "do-while" "int F(int a) { do { a = a - 1; } while (a > 0); return a; }"
      ~blocks:7 ~edges:6;
    shape "switch with fallthrough"
      "int F(int a) { int x = 0; switch (a) { case 0: x = 1; case 1: x = 2; break; default: x = 3; } return x; }"
      ~blocks:9 ~edges:10;
    shape "goto forward"
      "int F(int a) { if (a > 0) { goto out; } a = 1; out: return a; }"
      ~blocks:8 ~edges:7;
    shape "short-circuit and"
      "int F(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }"
      ~blocks:9 ~edges:8;
    shape "unreachable after return" "int F(int a) { return a; a = 1; }"
      ~blocks:3 ~edges:2;
  ]

let test_switch_fallthrough_edge () =
  (* the case-0 clause must fall through into the case-1 clause *)
  let cfg =
    cfg_of
      "int F(int a) { int x = 0; switch (a) { case 0: x = 1; case 1: x = 2; break; default: x = 3; } return x; }"
  in
  (* the scrutinee lives in the entry block; its Ecase/Edefault
     successors are the clause heads *)
  let clauses =
    List.filter_map
      (fun (dst, k) ->
        match k with Cfg.Ecase | Cfg.Edefault -> Some dst | _ -> None)
      cfg.Cfg.blocks.(cfg.Cfg.entry).Cfg.succs
  in
  Alcotest.(check int) "three clauses" 3 (List.length clauses);
  let falls_through =
    List.exists
      (fun bid ->
        List.exists
          (fun (dst, k) -> k = Cfg.Eseq && List.mem dst clauses)
          cfg.Cfg.blocks.(bid).Cfg.succs)
      clauses
  in
  Alcotest.(check bool) "clause falls through to next clause" true falls_through

let test_short_circuit_atomic_conds () =
  let cfg =
    cfg_of "int F(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }"
  in
  let conds =
    Array.fold_left
      (fun n (b : Cfg.block) ->
        n
        + List.length
            (List.filter
               (fun (i : Cfg.instr) ->
                 match i.Cfg.i with Cfg.Icond _ -> true | _ -> false)
               b.Cfg.instrs))
      0 cfg.Cfg.blocks
  in
  Alcotest.(check int) "&& decomposed into two atomic conditions" 2 conds

let test_goto_label_reachable () =
  (* code reached only through a goto is NOT unreachable *)
  let cfg =
    cfg_of "int F(int a, int b) { if (a > 0) { goto l; } return a; l: return b; }"
  in
  Alcotest.(check int) "no unreachable region" 0
    (List.length (Analyses.unreachable_regions (Analyses.lower cfg)))

(* ------------------------------------------------------------------ *)
(* Worklist fixpoint                                                   *)
(* ------------------------------------------------------------------ *)

module SS = Set.Make (String)
module IS = Set.Make (Int)

module Defined = struct
  type t = SS.t

  let bottom = SS.empty
  let equal = SS.equal
  let join = SS.union
end

module DefinedSolver = Framework.Make (Defined)

let test_fixpoint_converges_on_loop () =
  let cfg =
    cfg_of
      "int F(int a) { int s = 0; while (a > 0) { s = s + a; a = a - 1; } return s; }"
  in
  let transfer bid fact =
    List.fold_left
      (fun fact instr ->
        List.fold_left
          (fun fact (name, _) -> SS.add name fact)
          fact (Cfg.defs_of_instr instr))
      fact cfg.Cfg.blocks.(bid).Cfg.instrs
  in
  let result, steps =
    DefinedSolver.solve_counted ~cfg ~direction:Framework.Forward
      ~boundary:Defined.bottom ~transfer
  in
  (* the back edge forces at least one block to be re-processed ... *)
  Alcotest.(check bool) "more transfers than blocks" true
    (steps > Cfg.n_blocks cfg);
  (* ... and the fixpoint is still finite and stable *)
  let result2, _ =
    DefinedSolver.solve_counted ~cfg ~direction:Framework.Forward
      ~boundary:Defined.bottom ~transfer
  in
  Alcotest.(check bool) "deterministic fixpoint" true
    (Array.for_all2 SS.equal result.DefinedSolver.before
       result2.DefinedSolver.before);
  Alcotest.(check bool) "s defined at exit" true
    (SS.mem "s" result.DefinedSolver.after.(cfg.Cfg.exit_))

let test_backward_direction_execution_order () =
  (* liveness facts are reported in execution order: the loop-carried
     variable is live on entry to the condition block *)
  let cfg = cfg_of "int F(int a) { while (a > 0) { a = a - 1; } return a; }" in
  let lw = Analyses.lower cfg in
  let live = Analyses.liveness lw in
  let cond_bid =
    let found = ref (-1) in
    Array.iter
      (fun (b : Cfg.block) ->
        if
          List.exists
            (fun (i : Cfg.instr) ->
              match i.Cfg.i with Cfg.Icond _ -> true | _ -> false)
            b.Cfg.instrs
        then found := b.Cfg.bid)
      cfg.Cfg.blocks;
    !found
  in
  Alcotest.(check bool) "found the condition block" true (cond_bid >= 0);
  Alcotest.(check bool) "a live at loop head" true
    (Analyses.mem lw "a" live.Analyses.Solver.before.(cond_bid))

(* ------------------------------------------------------------------ *)
(* Flow-sensitive rule behavior on snippets                            *)
(* ------------------------------------------------------------------ *)

let ctx_of src =
  let pf =
    { Cfront.Project.file =
        { Cfront.Project.path = "r.cc"; modname = "r"; header = false;
          content = src };
      tu = Cfront.Parser.parse_file ~file:"r.cc" src }
  in
  Misra.Rule.context_of_files [ pf ]

let rule_hits rule_id src =
  match Misra.Registry.find_rule rule_id with
  | None -> Alcotest.failf "rule %s not registered" rule_id
  | Some rule -> List.length (rule.Misra.Rule.check (ctx_of src))

let test_91_false_positive_fixed () =
  (* assigned on BOTH branches before use: the syntactic rule flagged
     this; the definite-assignment upgrade must not *)
  let src =
    "int F(int a) { int x; if (a > 0) { x = 1; } else { x = 2; } return x; }"
  in
  Alcotest.(check int) "9.1 clean" 0 (rule_hits "9.1" src);
  Alcotest.(check int) "metrics wrapper agrees" 0
    (List.length (Metrics.Uninit.of_functions [ parse_fn src ]))

let test_91_one_branch_still_flagged () =
  let src = "int F(int a) { int x; if (a > 0) { x = 1; } return x; }" in
  Alcotest.(check int) "9.1 fires" 1 (rule_hits "9.1" src)

let test_22_dead_store_across_branch () =
  (* x = 1 inside the branch is overwritten on every path before any
     read: invisible to the old effect-free-statement scan, caught by
     liveness *)
  let src =
    "int F(int a) { int x = a; if (a > 0) { x = 1; } x = 2; return x; }"
  in
  Alcotest.(check int) "2.2 catches the branch dead store" 1
    (rule_hits "2.2" src)

let test_22_live_store_clean () =
  let src = "int F(int a) { int x = a; if (a > 0) { x = 1; } return x; }" in
  Alcotest.(check int) "2.2 clean when the store is read" 0
    (rule_hits "2.2" src)

let test_21_unreachable_region_single_violation () =
  (* one region, however many dead statements it holds *)
  let src = "int F(int a) { return a; a = 1; a = 2; a = 3; }" in
  Alcotest.(check int) "one violation per region" 1 (rule_hits "2.1" src)

let test_df1_decl_initializer () =
  let src = "int F(int a) { int x = a; x = 1; return x; }" in
  (* the declaration initializer is dead (DF-1 counts it, 2.2 does not) *)
  Alcotest.(check int) "DF-1 counts the dead initializer" 1
    (rule_hits "DF-1" src);
  Alcotest.(check int) "2.2 skips declaration initializers" 0
    (rule_hits "2.2" src)

let test_df2_propagated_constant () =
  (* every reaching definition of x assigns 1, so the condition folds;
     a literal condition would be 14.3's finding, not DF-2's *)
  let src =
    "int F(int a) { int x = 1; if (a > 0) { x = 1; } if (x > 0) { return 1; } return 0; }"
  in
  Alcotest.(check int) "DF-2 fires on propagated constant" 1
    (rule_hits "DF-2" src);
  Alcotest.(check int) "DF-2 ignores literal conditions" 0
    (rule_hits "DF-2" "int F(int a) { if (1) { return 1; } return 0; }")

let test_addr_of_escapes () =
  (* &x counts as assignment for 9.1 (out-parameter idiom) and exempts x
     from dead-store reporting *)
  Alcotest.(check int) "9.1: &x treated as assignment" 0
    (rule_hits "9.1" "int G(int* p); int F(int a) { int x; G(&x); return x; }");
  Alcotest.(check int) "2.2: stores to address-taken vars kept" 0
    (rule_hits "2.2"
       "int G(int* p); int F(int a) { int x = 0; G(&x); x = 1; return a; }")

(* ------------------------------------------------------------------ *)
(* Golden counts on the deterministic corpus                           *)
(* ------------------------------------------------------------------ *)

let parsed_small =
  lazy
    (Cfront.Project.parse
       (Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small))

let misra_report =
  lazy (Misra.Registry.run (Misra.Rule.build_context (Lazy.force parsed_small)))

let rule_count id =
  let report = Lazy.force misra_report in
  match
    List.find_opt
      (fun ((r : Misra.Rule.t), _) -> r.Misra.Rule.id = id)
      report.Misra.Registry.per_rule
  with
  | Some (_, vs) -> List.length vs
  | None -> Alcotest.failf "rule %s missing" id

let summaries =
  lazy
    (Analyses.summarize_functions
       (Cfront.Project.all_functions (Lazy.force parsed_small)))

let totals () = Analyses.totals_of (Lazy.force summaries)

(* The exact figures for seed 2019 at small scale.  The flow-sensitive
   2.1 sees the seeded statements-after-return (the syntactic rule saw
   the same sites, but these goldens pin the CFG path); 2.2 grew from
   effect-free statements only to effect-free + dead stores. *)
let test_golden_21 () =
  Alcotest.(check int) "2.1 unreachable regions" 9 (rule_count "2.1")

let test_golden_22 () =
  Alcotest.(check int) "2.2 dead code" 1031 (rule_count "2.2")

let test_golden_91 () =
  Alcotest.(check int) "9.1 uninitialized reads" 9 (rule_count "9.1")

let test_golden_df () =
  Alcotest.(check int) "DF-1 dead stores" 1103 (rule_count "DF-1");
  Alcotest.(check int) "DF-2 propagated constants" 160 (rule_count "DF-2")

let test_crossval_21_vs_summaries () =
  Alcotest.(check int) "rule 2.1 agrees with the per-function summaries"
    (totals ()).Analyses.t_unreachable (rule_count "2.1")

let test_crossval_df1_vs_summaries () =
  Alcotest.(check int) "rule DF-1 agrees with the per-function summaries"
    (totals ()).Analyses.t_dead_stores (rule_count "DF-1")

let test_crossval_91_vs_summaries () =
  Alcotest.(check int) "rule 9.1 agrees with the per-function summaries"
    (totals ()).Analyses.t_uninit_reads (rule_count "9.1")

(* ------------------------------------------------------------------ *)
(* Golden CFGs for real corpus functions                               *)
(* ------------------------------------------------------------------ *)

(* The synthetic shapes above pin one construct each; these two pin
   whole functions from the hand-written YOLO sources, where the
   constructs compose.  Counts include the entry/exit blocks and the
   dead blocks after unconditional jumps (see the note on [cfg_cases]). *)
let yolo_fn name =
  let tus = Corpus.Yolo_src.parse_all () in
  match
    List.concat_map
      (fun tu ->
        List.filter
          (fun (f : Cfront.Ast.func) ->
            f.Cfront.Ast.f_body <> None && f.Cfront.Ast.f_name = name)
          (Cfront.Ast.functions_of_tu tu))
      tus
  with
  | [ fn ] -> fn
  | l -> Alcotest.failf "expected exactly one %s, found %d" name (List.length l)

(* box_intersection (box.c): two early-exit paths — the short-circuit
   [w < 0.0 || h < 0.0] guard returning 0.0, then the main return. *)
let test_golden_cfg_box_intersection () =
  let cfg = Cfg.of_func (yolo_fn "box_intersection") in
  Alcotest.(check int) "blocks" 9 (Cfg.n_blocks cfg);
  Alcotest.(check int) "edges" 8 (Cfg.n_edges cfg);
  (* the || guard decomposes into two atomic conditions *)
  let conds =
    Array.fold_left
      (fun n (b : Cfg.block) ->
        n
        + List.length
            (List.filter
               (fun (i : Cfg.instr) ->
                 match i.Cfg.i with Cfg.Icond _ -> true | _ -> false)
               b.Cfg.instrs))
      0 cfg.Cfg.blocks
  in
  Alcotest.(check int) "atomic conditions" 2 conds;
  (* both returns reach the exit block, plus the empty trailing block
     after the final return (same convention as "unreachable after
     return" above) *)
  Alcotest.(check int) "exit predecessors" 3
    (List.length cfg.Cfg.blocks.(cfg.Cfg.exit_).Cfg.preds);
  Alcotest.(check int) "no unreachable region" 0
    (List.length (Analyses.unreachable_regions (Analyses.lower cfg)))

(* parse_option_value (parser_cfg.c): a 12-case switch plus default,
   every clause a return — 13 paths into the exit block. *)
let test_golden_cfg_parse_option_value () =
  let cfg = Cfg.of_func (yolo_fn "parse_option_value") in
  Alcotest.(check int) "blocks" 30 (Cfg.n_blocks cfg);
  Alcotest.(check int) "edges" 41 (Cfg.n_edges cfg);
  let clause_edges =
    List.filter
      (fun (_, k) -> match k with Cfg.Ecase | Cfg.Edefault -> true | _ -> false)
      cfg.Cfg.blocks.(cfg.Cfg.entry).Cfg.succs
  in
  Alcotest.(check int) "12 cases + default dispatch from the scrutinee" 13
    (List.length clause_edges);
  (* 13 returning clauses plus the empty block after the switch *)
  Alcotest.(check int) "every clause returns into the exit" 14
    (List.length cfg.Cfg.blocks.(cfg.Cfg.exit_).Cfg.preds);
  Alcotest.(check int) "no unreachable region" 0
    (List.length (Analyses.unreachable_regions (Analyses.lower cfg)))

let test_dead_quota_bounded () =
  let quota =
    Util.Stats.sum_int
      (List.map
         (fun (s : Corpus.Apollo_profile.module_spec) ->
           s.Corpus.Apollo_profile.dead_code)
         Corpus.Apollo_profile.small)
  in
  let n = (totals ()).Analyses.t_unreachable in
  Alcotest.(check bool) "within quota" true (n <= quota);
  Alcotest.(check bool) "some emitted" true (n > 0)

(* ------------------------------------------------------------------ *)
(* Differential oracle: the Set-based analyses                         *)
(* ------------------------------------------------------------------ *)

(* The four analyses as they were written over [Set.Make (String)] /
   [Set.Make (Int)] facts, re-extracting every instruction's uses, defs
   and address-takings on each transfer.  The bitset implementation in
   [Dataflow.Analyses] must reproduce their facts exactly, on the same
   worklist schedule (equal transfer and solve counts).  Only the
   syntactic helpers (literal folding, the store of an instruction,
   region search) are shared. *)
module Oracle = struct
  open Cfront

  let tracked_decls (cfg : Cfg.t) =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun blk ->
        List.iter
          (fun (instr : Cfg.instr) ->
            match instr.Cfg.i with
            | Cfg.Idecl d when Analyses.tracked_type d.Ast.v_type ->
              if not (Hashtbl.mem tbl d.Ast.v_name) then
                Hashtbl.add tbl d.Ast.v_name d.Ast.v_loc
            | _ -> ())
          blk.Cfg.instrs)
      cfg.Cfg.blocks;
    tbl

  let names l = List.map fst l

  let addr_taken_of_cfg (cfg : Cfg.t) =
    Array.fold_left
      (fun acc (blk : Cfg.block) ->
        List.fold_left
          (fun acc instr -> Cfg.addr_taken_of_instr instr @ acc)
          acc blk.Cfg.instrs)
      [] cfg.Cfg.blocks
    |> List.sort_uniq compare

  module VarSolver = Framework.Make (Defined)

  module DefSolver = Framework.Make (struct
    type t = IS.t

    let bottom = IS.empty
    let equal = IS.equal
    let join = IS.union
  end)

  let uninit_transfer tracked (blk : Cfg.block) fact =
    List.fold_left
      (fun fact (instr : Cfg.instr) ->
        let fact =
          List.fold_left
            (fun fact n -> SS.remove n fact)
            fact
            (names (Cfg.defs_of_instr instr) @ Cfg.addr_taken_of_instr instr)
        in
        match instr.Cfg.i with
        | Cfg.Idecl d when d.Ast.v_init = None && Hashtbl.mem tracked d.Ast.v_name ->
          SS.add d.Ast.v_name fact
        | _ -> fact)
      fact blk.Cfg.instrs

  let uninit_reads (cfg : Cfg.t) =
    let tracked = tracked_decls cfg in
    if Hashtbl.length tracked = 0 then []
    else begin
      let result =
        VarSolver.solve ~cfg ~direction:Framework.Forward ~boundary:SS.empty
          ~transfer:(fun bid fact ->
            uninit_transfer tracked cfg.Cfg.blocks.(bid) fact)
      in
      let fname = Ast.qualified_name cfg.Cfg.func in
      let candidates = ref [] in
      Array.iter
        (fun (blk : Cfg.block) ->
          let fact = ref result.VarSolver.before.(blk.Cfg.bid) in
          List.iter
            (fun (instr : Cfg.instr) ->
              List.iter
                (fun (n, use_loc) ->
                  if SS.mem n !fact then
                    match Hashtbl.find_opt tracked n with
                    | Some decl_loc ->
                      candidates :=
                        { Analyses.u_var = n; u_decl_loc = decl_loc;
                          u_use_loc = use_loc; u_function = fname }
                        :: !candidates
                    | None -> ())
                (Cfg.uses_of_instr instr);
              fact := uninit_transfer tracked { blk with Cfg.instrs = [ instr ] } !fact)
            blk.Cfg.instrs)
        cfg.Cfg.blocks;
      let by_pos (a : Analyses.uninit_finding) (b : Analyses.uninit_finding) =
        compare
          (a.u_use_loc.Loc.line, a.u_use_loc.Loc.col, a.u_var)
          (b.u_use_loc.Loc.line, b.u_use_loc.Loc.col, b.u_var)
      in
      let sorted = List.sort by_pos (List.rev !candidates) in
      let seen = Hashtbl.create 8 in
      List.filter
        (fun (f : Analyses.uninit_finding) ->
          if Hashtbl.mem seen f.u_var then false
          else begin
            Hashtbl.add seen f.u_var ();
            true
          end)
        sorted
    end

  let live_transfer (blk : Cfg.block) fact =
    List.fold_left
      (fun fact (instr : Cfg.instr) ->
        let fact =
          List.fold_left (fun fact n -> SS.remove n fact) fact (names (Cfg.defs_of_instr instr))
        in
        List.fold_left
          (fun fact n -> SS.add n fact)
          fact
          (names (Cfg.uses_of_instr instr) @ Cfg.addr_taken_of_instr instr))
      fact (List.rev blk.Cfg.instrs)

  let liveness (cfg : Cfg.t) =
    VarSolver.solve ~cfg ~direction:Framework.Backward ~boundary:SS.empty
      ~transfer:(fun bid fact -> live_transfer cfg.Cfg.blocks.(bid) fact)

  let dead_stores (cfg : Cfg.t) =
    let tracked = tracked_decls cfg in
    if Hashtbl.length tracked = 0 then []
    else begin
      let escaped = SS.of_list (addr_taken_of_cfg cfg) in
      let live = liveness cfg in
      let reach = Cfg.reachable cfg in
      let fname = Ast.qualified_name cfg.Cfg.func in
      let acc = ref [] in
      Array.iter
        (fun (blk : Cfg.block) ->
          if reach.(blk.Cfg.bid) then begin
            let fact = ref live.VarSolver.after.(blk.Cfg.bid) in
            List.iter
              (fun (instr : Cfg.instr) ->
                (match Analyses.store_of_instr instr with
                 | Some (n, loc, kind)
                   when Hashtbl.mem tracked n
                        && (not (SS.mem n escaped))
                        && not (SS.mem n !fact) ->
                   acc :=
                     { Analyses.d_var = n; d_loc = loc; d_kind = kind; d_function = fname }
                     :: !acc
                 | _ -> ());
                fact := live_transfer { blk with Cfg.instrs = [ instr ] } !fact)
              (List.rev blk.Cfg.instrs)
          end)
        cfg.Cfg.blocks;
      List.sort
        (fun (a : Analyses.dead_store) (b : Analyses.dead_store) ->
          compare
            (a.d_loc.Loc.line, a.d_loc.Loc.col, a.d_var)
            (b.d_loc.Loc.line, b.d_loc.Loc.col, b.d_var))
        !acc
    end

  type def_site = { site_id : int; site_var : string; site_const : int64 option }

  let reaching_definitions (cfg : Cfg.t) =
    let gen = Hashtbl.create 32 in
    let all_sites = ref [] in
    let sites_of_var = Hashtbl.create 16 in
    let next = ref 0 in
    let new_site var const =
      let s = { site_id = !next; site_var = var; site_const = const } in
      incr next;
      Hashtbl.replace sites_of_var var
        (IS.add s.site_id
           (Option.value ~default:IS.empty (Hashtbl.find_opt sites_of_var var)));
      all_sites := s :: !all_sites;
      s
    in
    let const_of_instr (instr : Cfg.instr) var =
      match instr.Cfg.i with
      | Cfg.Idecl d when d.Ast.v_name = var -> Option.bind d.Ast.v_init Analyses.fold_literal
      | Cfg.Iexpr { e = Ast.Assign (Ast.A_eq, { e = Ast.Id n; _ }, rhs); _ } when n = var ->
        Analyses.fold_literal rhs
      | _ -> None
    in
    Array.iter
      (fun (blk : Cfg.block) ->
        List.iteri
          (fun idx (instr : Cfg.instr) ->
            let defined =
              names (Cfg.defs_of_instr instr)
              @ Cfg.addr_taken_of_instr instr
              @ (match instr.Cfg.i with
                 | Cfg.Idecl d when d.Ast.v_init = None -> [ d.Ast.v_name ]
                 | _ -> [])
            in
            match List.sort_uniq compare defined with
            | [] -> ()
            | vars ->
              Hashtbl.replace gen (blk.Cfg.bid, idx)
                (List.map (fun var -> new_site var (const_of_instr instr var)) vars))
          blk.Cfg.instrs)
      cfg.Cfg.blocks;
    let site_ids_of_var var =
      Option.value ~default:IS.empty (Hashtbl.find_opt sites_of_var var)
    in
    let site_by_id = Array.make (Stdlib.max 1 !next) None in
    List.iter (fun s -> site_by_id.(s.site_id) <- Some s) !all_sites;
    let transfer_instr bid idx fact =
      match Hashtbl.find_opt gen (bid, idx) with
      | None | Some [] -> fact
      | Some this ->
        let killed =
          List.fold_left (fun acc s -> IS.union acc (site_ids_of_var s.site_var)) IS.empty this
        in
        let fact = IS.diff fact killed in
        List.fold_left (fun fact s -> IS.add s.site_id fact) fact this
    in
    let transfer_block bid fact =
      List.fold_left
        (fun (idx, fact) _ -> (idx + 1, transfer_instr bid idx fact))
        (0, fact) cfg.Cfg.blocks.(bid).Cfg.instrs
      |> snd
    in
    let result =
      DefSolver.solve ~cfg ~direction:Framework.Forward ~boundary:IS.empty
        ~transfer:transfer_block
    in
    (result, site_by_id, site_ids_of_var, transfer_instr)

  let constant_conditions (cfg : Cfg.t) =
    let tracked = tracked_decls cfg in
    let escaped = SS.of_list (addr_taken_of_cfg cfg) in
    let result, site_by_id, site_ids_of_var, transfer_instr = reaching_definitions cfg in
    let reach = Cfg.reachable cfg in
    let fname = Ast.qualified_name cfg.Cfg.func in
    let acc = ref [] in
    Array.iter
      (fun (blk : Cfg.block) ->
        if reach.(blk.Cfg.bid) then begin
          let fact = ref result.DefSolver.before.(blk.Cfg.bid) in
          List.iteri
            (fun idx (instr : Cfg.instr) ->
              (match instr.Cfg.i with
               | Cfg.Icond (e, origin) ->
                 let env var =
                   if Hashtbl.mem tracked var && not (SS.mem var escaped) then begin
                     let reaching = IS.inter !fact (site_ids_of_var var) in
                     if IS.is_empty reaching then None
                     else
                       IS.fold
                         (fun id acc ->
                           match (acc, site_by_id.(id)) with
                           | `Start, Some { site_const = Some c; _ } -> `Const c
                           | `Const c, Some { site_const = Some c'; _ } when c = c' -> `Const c
                           | _ -> `Varies)
                         reaching `Start
                       |> function `Const c -> Some c | _ -> None
                   end
                   else None
                 in
                 let rec fold (e : Ast.expr) =
                   match e.Ast.e with
                   | Ast.Id x -> env x
                   | Ast.Unary (op, a) -> (
                       match (op, fold a) with
                       | Ast.Neg, Some n -> Some (Int64.neg n)
                       | Ast.Pos, Some n -> Some n
                       | Ast.Lnot, Some n -> Some (if n = 0L then 1L else 0L)
                       | Ast.Bnot, Some n -> Some (Int64.lognot n)
                       | _ -> None)
                   | Ast.Binary (op, a, b) -> (
                       match (fold a, fold b) with
                       | Some x, Some y -> Analyses.fold_binop op x y
                       | _ -> None)
                   | _ -> Analyses.fold_literal e
                 in
                 let literal = Analyses.fold_literal e <> None in
                 (match fold e with
                  | Some c ->
                    acc :=
                      { Analyses.c_loc = e.Ast.eloc; c_value = c <> 0L; c_origin = origin;
                        c_function = fname; c_propagated = not literal }
                      :: !acc
                  | None -> ())
               | _ -> ());
              fact := transfer_instr blk.Cfg.bid idx !fact)
            blk.Cfg.instrs
        end)
      cfg.Cfg.blocks;
    List.sort
      (fun (a : Analyses.const_cond) (b : Analyses.const_cond) ->
        compare (a.c_loc.Loc.line, a.c_loc.Loc.col) (b.c_loc.Loc.line, b.c_loc.Loc.col))
      !acc

  let facts_of_func (fn : Ast.func) =
    let cfg = Cfg.of_func fn in
    {
      Analyses.x_function = Ast.qualified_name fn;
      x_blocks = Cfg.n_blocks cfg;
      x_edges = Cfg.n_edges cfg;
      x_unreachable = Analyses.unreachable_regions (Analyses.lower cfg);
      x_dead_stores = dead_stores cfg;
      x_uninit_reads = uninit_reads cfg;
      x_const_conditions =
        List.filter (fun (c : Analyses.const_cond) -> c.c_propagated) (constant_conditions cfg);
    }
end

(* [f ()] with the solver's work counters it moved: (solves, transfers). *)
let with_solver_counts f =
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  let snap = Telemetry.snapshot_counters () in
  let v = f () in
  let moved = Telemetry.counters_since snap in
  let count k = Option.value ~default:0 (List.assoc_opt k moved) in
  (v, (count "dataflow.solves", count "dataflow.transfers"))

let counts = Alcotest.(pair int int)

(* The bitset facts equal the oracle's, on the same schedule. *)
let check_against_oracle (fn : Cfront.Ast.func) =
  let name = Cfront.Ast.qualified_name fn in
  let want, want_n = with_solver_counts (fun () -> Oracle.facts_of_func fn) in
  let got, got_n = with_solver_counts (fun () -> Analyses.facts_of_func fn) in
  if got <> want then Alcotest.failf "%s: facts differ from the Set-based oracle" name;
  Alcotest.check counts (name ^ ": solves, transfers") want_n got_n

let test_oracle_corpus seed () =
  let parsed =
    Cfront.Project.parse (Corpus.Generator.generate ~seed Corpus.Apollo_profile.small)
  in
  let fns =
    List.filter
      (fun (f : Cfront.Ast.func) -> f.Cfront.Ast.f_body <> None)
      (Cfront.Project.all_functions parsed)
  in
  Alcotest.(check bool) "a non-trivial corpus" true (List.length fns > 100);
  List.iter check_against_oracle fns

(* Hand-built functions, one construct each.  The last two number more
   names, and more def sites, than one bitset word holds; their loops
   change facts only in the upper word, so a solver that compared or
   combined the first word alone would stop early. *)
let oracle_cases =
  let vars n = List.init n (Printf.sprintf "v%d") in
  let stmts n f = String.concat " " (List.mapi f (vars n)) in
  (* v(n-2) has no initializer and is assigned only on one loop path *)
  let many_names n =
    Printf.sprintf
      "int F(int a) { %s int v%d; int v%d = 1; \
       while (a > 0) { if (a > 5) { v%d = a; } v0 = v0 + a; a = a - 1; } \
       if (v0 > 0) { return v%d; } if (v%d > 0) { return %s; } return a; }"
      (stmts (n - 2) (fun _ v -> Printf.sprintf "int %s = 0;" v))
      (n - 2) (n - 1) (n - 2) (n - 2) (n - 1)
      (String.concat " + " (vars n))
  in
  (* twenty names, four constant stores each, then a loop *)
  let many_sites =
    Printf.sprintf
      "int F(int a) { %s %s %s %s \
       while (a > 0) { v0 = v0 + a; v19 = 3; a = a - 1; } \
       if (v0 > 0) { return v19; } if (v1 > 1) { return 1; } return a; }"
      (stmts 20 (fun _ v -> Printf.sprintf "int %s = 0;" v))
      (stmts 20 (fun _ v -> Printf.sprintf "%s = 1;" v))
      (stmts 20 (fun _ v -> Printf.sprintf "%s = 2;" v))
      (stmts 20 (fun _ v -> Printf.sprintf "%s = 3;" v))
  in
  [
    ( "back edge",
      "int F(int a) { int s = 0; int k; \
       while (a > 0) { s = s + a; k = s; a = a - 1; } \
       if (s > 0) { return k; } return s; }" );
    ( "backward goto",
      "int F(int a) { int x = 1; int y; top: if (x > 0) { y = x; } x = 0; \
       if (a > 0) { a = a - 1; goto top; } return y; }" );
    ( "switch fallthrough",
      "int F(int a) { int x; int d = 3; \
       switch (a) { case 0: x = 1; case 1: x = 2; break; case 2: d = 4; break; \
       default: x = 3; } if (d > 3) { return x; } return d; }" );
    ( "address-taken local",
      "int G(int* p); int F(int a) { int x; int y = 0; G(&x); y = x; x = 5; \
       if (y > 0) { return x; } return a; }" );
    ("no tracked locals", "int F(int a) { if (a > 0) { a = a + 1; } return a; }");
    ("more than 62 names", many_names 70);
    ("more than 62 def sites", many_sites);
  ]

let test_oracle_case src () = check_against_oracle (parse_fn src)

(* The may-uninit and liveness solves of a function with no tracked
   locals are skipped; reaching definitions still runs. *)
let test_no_tracked_skips_solves () =
  let fn = parse_fn "int F(int a) { if (a > 0) { a = a + 1; } return a; }" in
  let _, (solves, _) = with_solver_counts (fun () -> Analyses.facts_of_func fn) in
  Alcotest.(check int) "one solve" 1 solves

let () =
  Alcotest.run "dataflow"
    [
      ("cfg-shape", cfg_cases);
      ( "cfg-structure",
        [
          Alcotest.test_case "switch fallthrough edge" `Quick
            test_switch_fallthrough_edge;
          Alcotest.test_case "short-circuit atomic conditions" `Quick
            test_short_circuit_atomic_conds;
          Alcotest.test_case "goto label reachable" `Quick
            test_goto_label_reachable;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "converges on loop" `Quick
            test_fixpoint_converges_on_loop;
          Alcotest.test_case "backward facts in execution order" `Quick
            test_backward_direction_execution_order;
        ] );
      ( "rules",
        [
          Alcotest.test_case "9.1 both-branch FP fixed" `Quick
            test_91_false_positive_fixed;
          Alcotest.test_case "9.1 one-branch still flagged" `Quick
            test_91_one_branch_still_flagged;
          Alcotest.test_case "2.2 dead store across branch" `Quick
            test_22_dead_store_across_branch;
          Alcotest.test_case "2.2 live store clean" `Quick
            test_22_live_store_clean;
          Alcotest.test_case "2.1 one violation per region" `Quick
            test_21_unreachable_region_single_violation;
          Alcotest.test_case "DF-1 dead initializer" `Quick
            test_df1_decl_initializer;
          Alcotest.test_case "DF-2 propagated constant" `Quick
            test_df2_propagated_constant;
          Alcotest.test_case "address-taken escapes" `Quick
            test_addr_of_escapes;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "small corpus, seed 7" `Quick (test_oracle_corpus 7);
          Alcotest.test_case "small corpus, seed 2019" `Quick (test_oracle_corpus 2019);
          Alcotest.test_case "no tracked locals: solves skipped" `Quick
            test_no_tracked_skips_solves;
        ]
        @ List.map
            (fun (name, src) -> Alcotest.test_case name `Quick (test_oracle_case src))
            oracle_cases );
      ( "corpus-golden",
        [
          Alcotest.test_case "2.1 golden" `Quick test_golden_21;
          Alcotest.test_case "2.2 golden" `Quick test_golden_22;
          Alcotest.test_case "9.1 golden" `Quick test_golden_91;
          Alcotest.test_case "DF-1/DF-2 golden" `Quick test_golden_df;
          Alcotest.test_case "2.1 vs summaries" `Quick
            test_crossval_21_vs_summaries;
          Alcotest.test_case "DF-1 vs summaries" `Quick
            test_crossval_df1_vs_summaries;
          Alcotest.test_case "9.1 vs summaries" `Quick
            test_crossval_91_vs_summaries;
          Alcotest.test_case "dead-code quota bounded" `Quick
            test_dead_quota_bounded;
          Alcotest.test_case "CFG golden: box_intersection" `Quick
            test_golden_cfg_box_intersection;
          Alcotest.test_case "CFG golden: parse_option_value" `Quick
            test_golden_cfg_parse_option_value;
        ] );
    ]
