(* Tests for the static-metrics library: complexity, LOC, function shape,
   casts, globals, uninitialized reads, pointers, shadowing, naming,
   style, defensive programming, architecture. *)

let parse src = Cfront.Parser.parse_file ~file:"m.cc" src

let funcs src = Cfront.Ast.functions_of_tu (parse src)

(* The census of the defined functions of [src]. *)
let census src =
  Metrics.Census.of_functions
    (List.filter (fun f -> f.Cfront.Ast.f_body <> None) (funcs src))

let casts_of src = (census src).Metrics.Census.casts

let cc_of src =
  match Metrics.Complexity.of_functions (funcs src) with
  | [ c ] -> c.Metrics.Complexity.cc
  | _ -> Alcotest.fail "expected exactly one function"

let parsed_file ?(path = "m.cc") ?(modname = "m") src =
  Cfront.Project.parsed_file
    { Cfront.Project.path; modname; header = false; content = src }
    (Cfront.Parser.parse_file ~file:path src)

(* ------------------------------------------------------------------ *)
(* Cyclomatic complexity                                                *)
(* ------------------------------------------------------------------ *)

let test_cc_straight_line () =
  Alcotest.(check int) "CC 1" 1 (cc_of "int F(int a) { int b = a; return b; }")

let test_cc_if () =
  Alcotest.(check int) "CC 2" 2 (cc_of "int F(int a) { if (a > 0) { a = 1; } return a; }")

let test_cc_if_else () =
  Alcotest.(check int) "else adds nothing" 2
    (cc_of "int F(int a) { if (a > 0) { a = 1; } else { a = 2; } return a; }")

let test_cc_nested_ifs () =
  Alcotest.(check int) "CC 3" 3
    (cc_of "int F(int a) { if (a > 0) { if (a > 5) { a = 9; } } return a; }")

let test_cc_short_circuit () =
  Alcotest.(check int) "&& and || count" 4
    (cc_of "int F(int a, int b) { if (a > 0 && b > 0 || a < -5) { a = 1; } return a; }")

let test_cc_loops () =
  Alcotest.(check int) "for+while+do" 4
    (cc_of
       "int F(int a) { for (int i = 0; i < a; ++i) { a--; } \
        while (a > 0) { a--; } do { a++; } while (a < 0); return a; }")

let test_cc_switch_cases () =
  Alcotest.(check int) "cases count, default does not" 3
    (cc_of
       "int F(int a) { switch (a) { case 0: return 1; case 1: return 2; default: return 3; } }")

let test_cc_ternary () =
  Alcotest.(check int) "ternary counts" 2 (cc_of "int F(int a) { return a > 0 ? 1 : 2; }")

let test_cc_buckets () =
  Alcotest.(check bool) "low" true (Metrics.Complexity.bucket_of_cc 10 = Metrics.Complexity.Low);
  Alcotest.(check bool) "moderate" true (Metrics.Complexity.bucket_of_cc 11 = Metrics.Complexity.Moderate);
  Alcotest.(check bool) "risky" true (Metrics.Complexity.bucket_of_cc 21 = Metrics.Complexity.Risky);
  Alcotest.(check bool) "unstable" true (Metrics.Complexity.bucket_of_cc 51 = Metrics.Complexity.Unstable)

let test_nesting_depth () =
  let depth src =
    match funcs src with
    | [ fn ] -> Metrics.Complexity.nesting_of_func fn
    | _ -> Alcotest.fail "one function"
  in
  Alcotest.(check int) "flat" 0 (depth "int F(int a) { return a; }");
  Alcotest.(check int) "single if" 1
    (depth "int F(int a) { if (a > 0) { a = 1; } return a; }");
  Alcotest.(check int) "loop in if in loop" 3
    (depth
       "int F(int a) { for (int i = 0; i < a; ++i) { if (i > 2) { \
        while (a > 0) { a--; } } } return a; }");
  Alcotest.(check int) "else branch counts" 2
    (depth
       "int F(int a) { if (a > 0) { a = 1; } else { if (a < -5) { a = 2; } } return a; }")

let prop_cc_at_least_one =
  QCheck.Test.make ~name:"CC >= 1 on generated corpus functions" ~count:5
    QCheck.(int_range 1 500)
    (fun seed ->
      let specs = [ List.hd Corpus.Apollo_profile.small ] in
      let project = Corpus.Generator.generate ~seed specs in
      let parsed = Cfront.Project.parse project in
      List.for_all
        (fun (c : Metrics.Complexity.func_cc) -> c.Metrics.Complexity.cc >= 1)
        (Metrics.Complexity.of_functions (Cfront.Project.all_functions parsed)))

(* ------------------------------------------------------------------ *)
(* LOC                                                                  *)
(* ------------------------------------------------------------------ *)

let test_loc_counts () =
  let tu = parse "// header comment\n\nint F() {\n  return 1;\n}\n" in
  let logical =
    Metrics.Census.sum
      (fun c -> c.Metrics.Census.logical)
      (Metrics.Census.of_functions (Cfront.Ast.functions_of_tu tu)).Metrics.Census.counts
  in
  let c = Metrics.Style.loc_counts tu (Metrics.Style.scan tu.Cfront.Ast.raw_source) ~logical in
  Alcotest.(check int) "blank" 2 c.Metrics.Loc_metrics.blank;
  Alcotest.(check int) "comment lines" 1 c.Metrics.Loc_metrics.comment;
  Alcotest.(check int) "physical" 4 c.Metrics.Loc_metrics.physical;
  Alcotest.(check int) "logical stmts" 1 c.Metrics.Loc_metrics.logical

let test_loc_add () =
  let a = { Metrics.Loc_metrics.physical = 1; blank = 2; comment = 3; logical = 4; total = 5 } in
  let s = Metrics.Loc_metrics.add a a in
  Alcotest.(check int) "sum" 2 s.Metrics.Loc_metrics.physical;
  Alcotest.(check int) "total" 10 s.Metrics.Loc_metrics.total

(* ------------------------------------------------------------------ *)
(* Function shape                                                       *)
(* ------------------------------------------------------------------ *)

let shape_of src =
  match (census src).Metrics.Census.counts with
  | [ s ] -> s
  | _ -> Alcotest.fail "one function expected"

let test_shape_single_exit () =
  let s = shape_of "int F(int a) { a = a + 1; return a; }" in
  Alcotest.(check bool) "not multi exit" false s.Metrics.Census.multi_exit;
  Alcotest.(check int) "one return" 1 s.Metrics.Census.returns

let test_shape_two_returns () =
  let s = shape_of "int F(int a) { if (a < 0) { return -1; } return a; }" in
  Alcotest.(check bool) "multi exit" true s.Metrics.Census.multi_exit;
  Alcotest.(check int) "two returns" 2 s.Metrics.Census.returns

let test_shape_return_not_last () =
  let s = shape_of "void F(int a) { if (a > 0) { return; } a = 1; }" in
  Alcotest.(check bool) "early return only" true s.Metrics.Census.multi_exit

let test_shape_goto_counted () =
  let s = shape_of "int F(int a) { if (a < 0) { goto out; } a++; out: return a; }" in
  Alcotest.(check int) "gotos" 1 s.Metrics.Census.gotos

let test_shape_throw_is_exit () =
  let s = shape_of "int F(int a) { if (a < 0) { throw 1; } return a; }" in
  Alcotest.(check bool) "throw makes multi-exit" true s.Metrics.Census.multi_exit;
  Alcotest.(check int) "throws" 1 s.Metrics.Census.throws

let test_multi_exit_fraction () =
  let c =
    census
      "int A(int x) { return x; }\nint B(int x) { if (x > 0) { return 1; } return 0; }"
  in
  Alcotest.(check (float 1e-9)) "half" 0.5
    (Metrics.Census.multi_exit_fraction c.Metrics.Census.counts)

(* ------------------------------------------------------------------ *)
(* Casts                                                                *)
(* ------------------------------------------------------------------ *)

let test_casts_explicit () =
  let records =
    casts_of
      "void F(float x) { int a = (int)x; float b = static_cast<float>(a); \
       int* p = reinterpret_cast<int*>(0); const int* q = const_cast<int*>(p); }"
  in
  Alcotest.(check int) "four explicit" 4 (Metrics.Casts.explicit_count records)

let test_casts_implicit_narrowing () =
  let records = casts_of "void F(float x) { int a = 0; a = x; }" in
  let narrowing =
    List.filter (fun (r : Metrics.Casts.record) -> r.Metrics.Casts.kind = Metrics.Casts.Implicit_narrowing) records
  in
  Alcotest.(check int) "one narrowing" 1 (List.length narrowing)

let test_casts_implicit_widening_in_init () =
  let records = casts_of "void F(int n) { float x = n; }" in
  Alcotest.(check int) "one implicit" 1 (Metrics.Casts.implicit_count records)

let test_casts_none_for_matching_types () =
  let records = casts_of "void F(int n) { int m = n + 1; m = n; }" in
  Alcotest.(check int) "clean" 0 (List.length records)

(* ------------------------------------------------------------------ *)
(* Globals                                                              *)
(* ------------------------------------------------------------------ *)

let test_globals_census () =
  let tu =
    parse
      "int g_mutable = 0;\nstatic float g_static;\nconst int kConst = 1;\nextern int g_ext;\n\
       namespace m { double g_scoped = 0.0; }"
  in
  let gs = Metrics.Globals.of_tu tu in
  Alcotest.(check int) "three mutable" 3 (List.length gs);
  Alcotest.(check bool) "scoped name recorded" true
    (List.exists (fun (g : Metrics.Globals.record) -> g.Metrics.Globals.scope = [ "m" ]) gs)

let test_globals_uninitialized () =
  let pf = parsed_file "int g_a;\nint g_b = 2;" in
  Alcotest.(check int) "one uninitialized" 1
    (List.length (Metrics.Globals.uninitialized_globals [ pf ]))

(* ------------------------------------------------------------------ *)
(* Uninitialized locals                                                 *)
(* ------------------------------------------------------------------ *)

let uninit_of src =
  Metrics.Uninit.of_facts
    (List.map Dataflow.Analyses.facts_of_func
       (List.filter (fun (fn : Cfront.Ast.func) -> fn.Cfront.Ast.f_body <> None) (funcs src)))

let test_uninit_basic () =
  Alcotest.(check int) "flagged" 1
    (List.length (uninit_of "int F(int a) { int x; return a + x; }"))

let test_uninit_initialized_clean () =
  Alcotest.(check int) "clean" 0
    (List.length (uninit_of "int F(int a) { int x = 0; return a + x; }"))

let test_uninit_branch_read () =
  Alcotest.(check int) "read in branch" 1
    (List.length
       (uninit_of "int F(int a) { int x; if (a > 0) { a = a + x; } return a; }"))

let test_uninit_branch_assign_then_read () =
  (* assignment on one branch is not definite: later read still flagged *)
  Alcotest.(check int) "conditional assign insufficient" 1
    (List.length
       (uninit_of
          "int F(int a) { int x; if (a > 0) { x = 1; } return x; }"))

let test_uninit_definite_assignment () =
  Alcotest.(check int) "straight-line assign clears" 0
    (List.length (uninit_of "int F(int a) { int x; x = a; return x; }"))

let test_uninit_address_of_counts_as_write () =
  Alcotest.(check int) "out-parameter idiom clean" 0
    (List.length
       (uninit_of "int F(int a) { int x; Init(&x); return x; }"))

let test_uninit_arrays_exempt () =
  Alcotest.(check int) "arrays exempt" 0
    (List.length (uninit_of "int F(int a) { int buf[4]; return buf[0]; }"))

(* ------------------------------------------------------------------ *)
(* Pointers and dynamic memory                                          *)
(* ------------------------------------------------------------------ *)

let test_pointer_usage () =
  let u =
    Metrics.Census.pointer_usage
      (census "void F(float* a, int n) { float* p = a; int x = p[0]; float y = *a; int* q = &n; }")
        .Metrics.Census.counts
  in
  Alcotest.(check int) "ptr params" 1 u.Metrics.Pointers.ptr_params;
  Alcotest.(check int) "ptr locals" 2 u.Metrics.Pointers.ptr_locals;
  Alcotest.(check bool) "derefs seen" true (u.Metrics.Pointers.derefs >= 2);
  Alcotest.(check int) "address-of" 1 u.Metrics.Pointers.address_of

let test_dyn_alloc_kinds () =
  let allocs =
    (census
       "void F(int n) { float* a = (float*)malloc(n); int* b = new int[n]; \
        int* c = new int; float* d; cudaMalloc((void**)&d, n); }")
      .Metrics.Census.dyn_allocs
  in
  let sites = List.map (fun (a : Metrics.Pointers.dyn_alloc) -> a.Metrics.Pointers.site) allocs in
  Alcotest.(check (list string)) "all kinds"
    [ "malloc"; "new[]"; "new"; "cudaMalloc" ] sites

(* ------------------------------------------------------------------ *)
(* Shadowing                                                            *)
(* ------------------------------------------------------------------ *)

(* The shadowing findings of [pfs] over their own mutable globals, as
   the rule context computes them. *)
let shadowing_of pfs = Metrics.Shadowing.of_globals ~globals:(Metrics.Globals.of_files pfs) pfs

let test_shadowing_kinds () =
  let src =
    "int g_v = 0;\nvoid F(int p) {\n  int local = 1;\n  if (p > 0) {\n    int local = 2;\n    int p = 3;\n    int g_v = 4;\n    local = p + g_v;\n  }\n}"
  in
  let findings = shadowing_of [ parsed_file src ] in
  let kinds = List.map (fun (f : Metrics.Shadowing.finding) -> f.Metrics.Shadowing.kind) findings in
  Alcotest.(check bool) "local shadow" true (List.mem `Shadows_local kinds);
  Alcotest.(check bool) "param shadow" true (List.mem `Shadows_param kinds);
  Alcotest.(check bool) "global shadow" true (List.mem `Shadows_global kinds)

let test_duplicate_globals_across_files () =
  let a = parsed_file ~path:"a.cc" "int g_shared = 0;" in
  let b = parsed_file ~path:"b.cc" "int g_shared = 1;" in
  let dups =
    List.filter
      (fun (f : Metrics.Shadowing.finding) -> f.Metrics.Shadowing.kind = `Duplicate_global)
      (shadowing_of [ a; b ])
  in
  Alcotest.(check int) "both flagged" 2 (List.length dups)

let test_no_shadowing_clean () =
  let findings =
    shadowing_of
      [ parsed_file "void F(int p) { int a = p; if (a > 0) { int b = a; b++; } }" ]
  in
  Alcotest.(check int) "clean" 0 (List.length findings)

(* The quadratic shadowing pass as it stood before the global names were
   hashed: every local declaration tests [List.mem] over the names of all
   mutable globals.  It is kept here as the oracle the linear pass must
   reproduce finding for finding, in order. *)
let rec reference_check_stmt ~globals ~params ~fname ~outer acc stmt =
  let decls_of s =
    match s.Cfront.Ast.s with
    | Cfront.Ast.Sdecl ds | Cfront.Ast.Sfor { init = Cfront.Ast.Fi_decl ds; _ } -> ds
    | _ -> []
  in
  let recur = reference_check_stmt ~globals ~params ~fname in
  let finding name (d : Cfront.Ast.var_decl) kind =
    { Metrics.Shadowing.name; loc = d.Cfront.Ast.v_loc; kind; in_function = Some fname }
  in
  match stmt.Cfront.Ast.s with
  | Cfront.Ast.Sblock ss ->
    snd
      (List.fold_left
         (fun (scope, acc) s ->
           let acc =
             List.fold_left
               (fun acc (d : Cfront.Ast.var_decl) ->
                 let name = d.Cfront.Ast.v_name in
                 if List.mem name scope then finding name d `Shadows_local :: acc
                 else if List.mem name params then finding name d `Shadows_param :: acc
                 else if List.mem name globals then finding name d `Shadows_global :: acc
                 else acc)
               acc (decls_of s)
           in
           let scope' = List.map (fun d -> d.Cfront.Ast.v_name) (decls_of s) @ scope in
           (scope', recur ~outer:scope' acc s))
         (outer, acc) ss)
  | Cfront.Ast.Sif { then_; else_; _ } ->
    let acc = recur ~outer acc then_ in
    (match else_ with Some s -> recur ~outer acc s | None -> acc)
  | Cfront.Ast.Swhile (_, body)
  | Cfront.Ast.Sdo_while (body, _)
  | Cfront.Ast.Sswitch (_, body)
  | Cfront.Ast.Slabel (_, body) ->
    recur ~outer acc body
  | Cfront.Ast.Sfor { init; body; _ } ->
    let outer =
      match init with
      | Cfront.Ast.Fi_decl ds -> List.map (fun d -> d.Cfront.Ast.v_name) ds @ outer
      | _ -> outer
    in
    recur ~outer acc body
  | Cfront.Ast.Stry { body; catches } ->
    List.fold_left (fun acc (_, s) -> recur ~outer acc s) (recur ~outer acc body) catches
  | _ -> acc

let reference_shadowing (pfs : Cfront.Project.parsed_file list) =
  let globals = Metrics.Globals.of_files pfs in
  let names = List.map (fun (g : Metrics.Globals.record) -> g.Metrics.Globals.name) globals in
  List.concat_map
    (fun pf ->
      List.concat_map
        (fun (fn : Cfront.Ast.func) ->
          match fn.Cfront.Ast.f_body with
          | None -> []
          | Some body ->
            let params = List.map (fun p -> p.Cfront.Ast.p_name) fn.Cfront.Ast.f_params in
            List.rev
              (reference_check_stmt ~globals:names ~params
                 ~fname:(Cfront.Ast.qualified_name fn) ~outer:[] [] body))
        (Cfront.Ast.functions_of_tu (Cfront.Project.tu pf)))
    pfs
  @ Metrics.Shadowing.duplicate_globals globals

let check_shadowing_matches_reference label pfs =
  let got = shadowing_of pfs in
  Alcotest.(check int) (label ^ ": count") (List.length (reference_shadowing pfs))
    (List.length got);
  Alcotest.(check bool) (label ^ ": same findings, same order") true
    (reference_shadowing pfs = got)

let small_parsed seed =
  Cfront.Project.parse (Corpus.Generator.generate ~seed Corpus.Apollo_profile.small)

(* The generated corpus declares no shadowing local, so each seed is
   checked twice: as generated, and with one more file whose functions
   declare locals named after every third global of the corpus (and
   redefine every fifth), so the hashed lookup is hit with real names. *)
let with_shadowing_file (pfs : Cfront.Project.parsed_file list) =
  let names =
    List.sort_uniq compare
      (List.map (fun (g : Metrics.Globals.record) -> g.Metrics.Globals.name)
         (Metrics.Globals.of_files pfs))
  in
  let src =
    String.concat "\n"
      (List.concat
         (List.mapi
            (fun i name ->
              (if i mod 5 = 0 then [ Printf.sprintf "int %s = %d;" name i ] else [])
              @
              if i mod 3 = 0 then
                [ Printf.sprintf
                    "void Shadow%d(int p) { int %s = p; { int %s = 1; int p = 2; %s++; } }"
                    i name name name ]
              else [])
            names))
  in
  pfs @ [ parsed_file ~path:"shadow.cc" ~modname:"shadow" src ]

let test_shadowing_matches_reference_corpus () =
  List.iter
    (fun seed ->
      let pfs = (small_parsed seed).Cfront.Project.files in
      check_shadowing_matches_reference (Printf.sprintf "small seed %d" seed) pfs;
      let pfs = with_shadowing_file pfs in
      check_shadowing_matches_reference
        (Printf.sprintf "small seed %d with shadowing file" seed) pfs;
      let kinds =
        List.map (fun (f : Metrics.Shadowing.finding) -> f.Metrics.Shadowing.kind)
          (shadowing_of pfs)
      in
      List.iter
        (fun kind ->
          Alcotest.(check bool) "every kind occurs" true (List.mem kind kinds))
        [ `Shadows_local; `Shadows_param; `Shadows_global; `Duplicate_global ])
    [ 7; 2019 ]

let test_shadowing_matches_reference_edges () =
  let cases =
    [
      ( "local named like a global",
        [ parsed_file "int g_v = 0;\nvoid F() { int g_v = 1; g_v++; }" ] );
      ( "parameter named like a global wins",
        [ parsed_file "int g_v = 0;\nvoid F(int g_v) { int g_v = 1; g_v++; }" ] );
      ( "global from another file",
        [ parsed_file ~path:"a.cc" "int g_a = 0;";
          parsed_file ~path:"b.cc" "void F() { for (int g_a = 0; g_a < 3; ++g_a) { int g_a = 2; } }" ] );
      ( "const globals are not shadowed",
        [ parsed_file "const int k_v = 0;\nvoid F() { int k_v = 1; k_v++; }" ] );
      ( "name defined in several files",
        [ parsed_file ~path:"a.cc" "int g_s = 0;";
          parsed_file ~path:"b.cc" "int g_s = 1;\nint g_t = 2;";
          parsed_file ~path:"c.cc" "int g_s = 2;\nvoid F() { int g_s = 3; g_s++; }" ] );
    ]
  in
  List.iter (fun (label, pfs) -> check_shadowing_matches_reference label pfs) cases;
  let kinds pfs =
    List.map (fun (f : Metrics.Shadowing.finding) -> f.Metrics.Shadowing.kind)
      (shadowing_of pfs)
  in
  Alcotest.(check bool) "local named like a global shadows it" true
    (kinds (List.assoc "local named like a global" cases) = [ `Shadows_global ]);
  Alcotest.(check int) "each file of a redefined global is flagged" 3
    (List.length
       (List.filter (( = ) `Duplicate_global)
          (kinds (List.assoc "name defined in several files" cases))))

(* ------------------------------------------------------------------ *)
(* Naming                                                               *)
(* ------------------------------------------------------------------ *)

let naming_of src = Metrics.Naming.of_tu (parse src)

let test_naming_compliant () =
  let findings =
    naming_of
      "struct TrackedBox { float center_x; };\nconst int kMaxCount = 4;\n\
       int ComputeCost(int lane_count) { int total_cost = lane_count; return total_cost; }"
  in
  Alcotest.(check int) "no violations" 0 (List.length findings)

let test_naming_violations () =
  let findings =
    naming_of
      "struct bad_type { float X; };\nint snake_function(int CamelVar) { return CamelVar; }"
  in
  let rules = List.map (fun (f : Metrics.Naming.finding) -> f.Metrics.Naming.rule) findings in
  Alcotest.(check bool) "type name" true (List.mem Metrics.Naming.Type_name rules);
  Alcotest.(check bool) "function name" true (List.mem Metrics.Naming.Function_name rules);
  Alcotest.(check bool) "variable name" true (List.mem Metrics.Naming.Variable_name rules)

let test_naming_member_trailing_underscore () =
  let findings =
    naming_of "class C {\n private:\n  int good_;\n  int bad;\n};"
  in
  Alcotest.(check int) "one member violation" 1
    (List.length
       (List.filter
          (fun (f : Metrics.Naming.finding) -> f.Metrics.Naming.rule = Metrics.Naming.Member_name)
          findings))

let test_naming_constant () =
  Alcotest.(check int) "kConstant ok, lowercase flagged" 1
    (List.length (naming_of "const int kGood = 1;\nconst int not_constant_style = 2;"))

(* ------------------------------------------------------------------ *)
(* Style                                                                *)
(* ------------------------------------------------------------------ *)

(* Each rule the scan of [src] hits, once per hit. *)
let style_rules src =
  let scan = Metrics.Style.scan src in
  List.concat_map
    (fun r -> List.init (Metrics.Style.hits scan r) (fun _ -> r))
    Census_reference.style_rules

let test_style_long_line () =
  Alcotest.(check bool) "flagged" true
    (List.mem Metrics.Style.Line_too_long (style_rules (String.make 120 'x')))

let test_style_tab_and_trailing () =
  let rules = style_rules "int a;\t\nint b; " in
  Alcotest.(check bool) "tab" true (List.mem Metrics.Style.Tab_character rules);
  Alcotest.(check bool) "trailing" true (List.mem Metrics.Style.Trailing_whitespace rules)

let test_style_odd_indent () =
  Alcotest.(check bool) "odd indent" true
    (List.mem Metrics.Style.Odd_indentation (style_rules "   int a;"))

let test_style_brace_spacing () =
  Alcotest.(check bool) "missing space" true
    (List.mem Metrics.Style.Missing_space_before_brace (style_rules "if (a){"));
  Alcotest.(check bool) "clean" false
    (List.mem Metrics.Style.Missing_space_before_brace (style_rules "if (a) {"))

let test_style_clean_source () =
  Alcotest.(check int) "clean" 0 (List.length (style_rules "int a = 1;\nif (a > 0) {\n  a = 2;\n}"))

(* ------------------------------------------------------------------ *)
(* Defensive programming                                                *)
(* ------------------------------------------------------------------ *)

let test_defensive_param_validated () =
  let c = census "int F(float* data, int n) { if (data == nullptr) { return -1; } return n; }" in
  Alcotest.(check (float 1e-9)) "validated" 1.0
    (Metrics.Census.param_validation_ratio c.Metrics.Census.counts)

let test_defensive_param_unchecked () =
  let c = census "float F(float* data) { return data[0]; }" in
  Alcotest.(check (float 1e-9)) "unchecked" 0.0
    (Metrics.Census.param_validation_ratio c.Metrics.Census.counts)

let test_defensive_ignored_returns () =
  let c =
    census "int Compute(int a) { return a; }\nvoid Use(int a) { Compute(a); int b = Compute(a); b++; }"
  in
  Alcotest.(check int) "one ignored" 1 (List.length c.Metrics.Census.ignored_returns)

let test_defensive_assertions () =
  let c = census "void F(int a) { assert(a > 0); CHECK(a < 10); }" in
  Alcotest.(check int) "two assertions" 2
    (Metrics.Census.sum (fun c -> c.Metrics.Census.assertions) c.Metrics.Census.counts)

(* ------------------------------------------------------------------ *)
(* Architecture                                                         *)
(* ------------------------------------------------------------------ *)

let two_module_project () =
  let mk name content =
    { Cfront.Project.m_name = name;
      m_files = [ { Cfront.Project.path = name ^ ".cc"; modname = name; header = false; content } ] }
  in
  Cfront.Project.make ~name:"p"
    [ mk "core" "namespace core {\nint Base(int a) { return a; }\n}";
      mk "app"
        "namespace app {\nint Use(int a) { return Base(a) + Base(a + 1); }\n\
         int Local(int a) { return Use(a); }\n}" ]

(* Each module's facts as the core metrics derive them: the former
   line count, and the markers its functions' census records. *)
let architecture_of parsed =
  let modules =
    List.map
      (fun m ->
        let pfs = Cfront.Project.parsed_files_of_module parsed m in
        let counts =
          (Metrics.Census.of_functions (Cfront.Project.defined_functions pfs))
            .Metrics.Census.counts
        in
        ( m,
          { Metrics.Architecture.m_loc =
              (Census_reference.Loc_metrics.of_files pfs).Metrics.Loc_metrics.physical;
            m_interrupts = List.exists (fun c -> c.Metrics.Census.interrupts) counts;
            m_threads = List.exists (fun c -> c.Metrics.Census.threads) counts } ))
      (Cfront.Project.module_names parsed.Cfront.Project.project)
  in
  Metrics.Architecture.build
    ~graph:(Cfront.Callgraph.build (Cfront.Project.all_functions parsed))
    ~parsed ~modules

let test_architecture_coupling () =
  let comps = architecture_of (Cfront.Project.parse (two_module_project ())) in
  let app = List.find (fun c -> c.Metrics.Architecture.name = "app") comps in
  let core = List.find (fun c -> c.Metrics.Architecture.name = "core") comps in
  Alcotest.(check int) "app fan-out" 1 app.Metrics.Architecture.fan_out;
  Alcotest.(check int) "core fan-in" 1 core.Metrics.Architecture.fan_in;
  Alcotest.(check bool) "app cohesion below 1" true (app.Metrics.Architecture.cohesion < 1.0)

let test_architecture_thread_marker () =
  let project =
    Cfront.Project.make ~name:"p"
      [ { Cfront.Project.m_name = "w";
          m_files = [ { Cfront.Project.path = "w.cc"; modname = "w"; header = false;
                        content = "void Spawn(int* h) { pthread_create(h, 0, 0, 0); }" } ] } ]
  in
  let comps = architecture_of (Cfront.Project.parse project) in
  Alcotest.(check bool) "threads detected" true
    (List.exists (fun c -> c.Metrics.Architecture.uses_threads) comps)

(* Project_metrics counts each file's lines once and reads the globals
   off the rule context; every module's figures must still equal a
   fresh count over that module's files. *)
let test_module_counts_match_per_module_walks () =
  let parsed = small_parsed 2019 in
  let pm = Iso26262.Project_metrics.of_parsed parsed in
  List.iter
    (fun m ->
      let pfs = Cfront.Project.parsed_files_of_module parsed m in
      let loc = Census_reference.Loc_metrics.of_files pfs in
      let mm = Option.get (Iso26262.Project_metrics.find_module pm m) in
      Alcotest.(check bool) (m ^ " loc") true (mm.Iso26262.Project_metrics.loc = loc);
      Alcotest.(check int) (m ^ " globals")
        (List.length (Metrics.Globals.of_files pfs))
        mm.Iso26262.Project_metrics.globals;
      let comp =
        List.find
          (fun c -> c.Metrics.Architecture.name = m)
          pm.Iso26262.Project_metrics.architecture
      in
      Alcotest.(check int) (m ^ " component loc") loc.Metrics.Loc_metrics.physical
        comp.Metrics.Architecture.loc)
    (Cfront.Project.module_names parsed.Cfront.Project.project);
  Alcotest.(check int) "total loc"
    (Census_reference.Loc_metrics.of_files parsed.Cfront.Project.files).Metrics.Loc_metrics.physical
    pm.Iso26262.Project_metrics.total_loc;
  Alcotest.(check int) "total globals"
    (List.length (Metrics.Globals.of_files parsed.Cfront.Project.files))
    pm.Iso26262.Project_metrics.globals_total

let test_namespace_depth () =
  let pf = parsed_file "namespace a { namespace b { int F() { return 1; } } }" in
  Alcotest.(check int) "depth 2" 2 (Metrics.Architecture.namespace_depth [ pf ])

(* ------------------------------------------------------------------ *)
(* Census against the former walks                                      *)
(* ------------------------------------------------------------------ *)

let check_units label tus =
  let mismatches = List.concat_map Census_reference.unit_mismatches tus in
  Alcotest.(check (list string)) (label ^ ": census == former walks") [] mismatches;
  Alcotest.(check bool) (label ^ ": functions compared") true
    (List.exists (fun tu -> Census_reference.defined (Cfront.Ast.functions_of_tu tu) <> []) tus)

let test_census_corpus () =
  List.iter
    (fun seed ->
      check_units
        (Printf.sprintf "small seed %d" seed)
        (List.map Cfront.Project.tu (small_parsed seed).Cfront.Project.files))
    [ 7; 2019 ]

let test_census_embedded () =
  check_units "yolo" (Corpus.Yolo_src.parse_all ());
  check_units "stencil" (Corpus.Stencil_src.parse_all ())

(* Constructs where a count could drift from its former walk: decisions,
   casts and throws in case labels, a pointer declared in a for init,
   null checks on either side and bare, discarded results, every
   allocation kind, markers, guarded and unguarded kernels, returns
   behind labels, odd indentation, tabs and braces. *)
let census_edges =
  "int Ret(int a) { return a; }\n\
   void Nothing(int a) { }\n\
   int Cases(int a, int *p, float f, char *s) {\n\
  \  int n = 0;\n\
  \  switch (a) {\n\
  \    case 1 ? 2 : 3: n = a && n; break;\n\
  \    case (int)2.5: n = (p == NULL) ? 1 : 0; break;\n\
  \    case sizeof(*p): n = NULL != s; break;\n\
  \    default: break;\n\
  \  }\n\
  \  for (int *q = p, k = f; k < a; k++) { n += q[k]; }\n\
  \  if (p) { n = f; }\n\
  \  if (!p || a > 0) { assert(a); }\n\
  \  while (a-- > 0 && 0 == p){ Ret(a); }\n\
  \ \tfloat g = n;\n\
  \  int *m = (int *)malloc(4); int *arr = new int[a]; int *one = new int; delete m;\n\
  \  cudaMalloc((void **)&m, 4); cudaMemcpy(m, p, 4, 0); cudaFree(m);\n\
  \  pthread_create(0, 0, 0, 0); signal(2, 0); CHECK(n);   \n\
  \  if (a) throw a;\n\
  \  goto done;\n\
   done: return n > 0 ? n : -n;\n\
   }\n\
   __global__ void K(float *x, int n) { if (threadIdx.x < n) { x[threadIdx.x] = 0; } }\n\
   __global__ void U(float *x) { x[0] = 1; }\n\
   __global__ void Proto(float *x, int n);\n\
   void L(float *x) { K<<<1, 1>>>(x, 1); U<<<1, 1>>>(x); }\n\
   int Multi(int a) { if (a) return 1; else return 2; }\n\
   int Tail(int a) { lbl: { a++; return a; } }\n\
   int Early(int a) { if (a) { return 1; } a = 2; }\n"

let test_census_edges () =
  let tu = parse census_edges in
  Alcotest.(check (list string)) "edges parse" [] tu.Cfront.Ast.diags;
  check_units "edges" [ tu ];
  let c = census census_edges in
  let count name =
    List.assoc name
      (List.map2
         (fun (fn : Cfront.Ast.func) k -> (fn.Cfront.Ast.f_name, k))
         (Census_reference.defined (Cfront.Ast.functions_of_tu tu))
         c.Metrics.Census.counts)
  in
  let cases = count "Cases" in
  (* 3 ifs, while, for, 3 case labels; &&, ?:, || and && in the
     conditions, ?: in the return; the label's ?: does not count *)
  Alcotest.(check int) "Cases cc" 14 cases.Metrics.Census.cc;
  Alcotest.(check int) "Cases checked params" 2 cases.Metrics.Census.checked_params;
  Alcotest.(check bool) "Cases threads" true cases.Metrics.Census.threads;
  Alcotest.(check bool) "Cases interrupts" true cases.Metrics.Census.interrupts;
  Alcotest.(check bool) "K guarded" true (count "K").Metrics.Census.bound_check;
  Alcotest.(check bool) "U unguarded" false (count "U").Metrics.Census.bound_check;
  Alcotest.(check int) "L launches" 2 (count "L").Metrics.Census.launches;
  Alcotest.(check bool) "Tail single exit" false (count "Tail").Metrics.Census.multi_exit;
  Alcotest.(check bool) "Early multi exit" true (count "Early").Metrics.Census.multi_exit;
  Alcotest.(check (list string)) "allocations"
    [ "malloc"; "new[]"; "new"; "cudaMalloc" ]
    (List.map (fun (a : Metrics.Pointers.dyn_alloc) -> a.Metrics.Pointers.site)
       c.Metrics.Census.dyn_allocs);
  Alcotest.(check int) "one ignored result" 1 (List.length c.Metrics.Census.ignored_returns);
  let scan = Metrics.Style.scan census_edges in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (Printf.sprintf "style rule %d hit" (Metrics.Style.index rule))
        true
        (rule = Metrics.Style.Line_too_long || Metrics.Style.hits scan rule > 0))
    Census_reference.style_rules

(* The core metrics equal the former per-module and project walks. *)
let test_core_matches_former_walks () =
  let module R = Census_reference in
  List.iter
    (fun seed ->
      let parsed = small_parsed seed in
      let label what = Printf.sprintf "small seed %d: %s" seed what in
      let pm = Iso26262.Project_metrics.of_parsed parsed in
      let files = parsed.Cfront.Project.files in
      let all = Cfront.Project.all_functions parsed in
      List.iter
        (fun (mm : Iso26262.Project_metrics.module_metrics) ->
          let m = mm.Iso26262.Project_metrics.modname in
          let pfs = Cfront.Project.parsed_files_of_module parsed m in
          let fns = Cfront.Project.defined_functions pfs in
          let loc = R.Loc_metrics.of_files pfs in
          Alcotest.(check bool) (label (m ^ " complexity")) true
            (mm.Iso26262.Project_metrics.complexity
            = R.Complexity.summarize ~modname:m ~loc:loc.Metrics.Loc_metrics.physical fns);
          Alcotest.(check (float 0.0)) (label (m ^ " multi exit"))
            (R.Func_shape.multi_exit_fraction fns) mm.Iso26262.Project_metrics.multi_exit_frac;
          Alcotest.(check int) (label (m ^ " gotos")) (R.Func_shape.total_gotos fns)
            mm.Iso26262.Project_metrics.gotos;
          let comp =
            List.find
              (fun c -> c.Metrics.Architecture.name = m)
              pm.Iso26262.Project_metrics.architecture
          in
          Alcotest.(check bool) (label (m ^ " markers")) true
            (comp.Metrics.Architecture.uses_interrupts
             = R.Architecture.calls_marker Metrics.Architecture.interrupt_markers fns
            && comp.Metrics.Architecture.uses_threads
               = R.Architecture.calls_marker Metrics.Architecture.thread_markers fns))
        pm.Iso26262.Project_metrics.modules;
      Alcotest.(check bool) (label "pointer usage") true
        (pm.Iso26262.Project_metrics.pointer_usage = R.Pointers.usage_of_functions all);
      Alcotest.(check (float 0.0)) (label "multi exit") (R.Func_shape.multi_exit_fraction all)
        pm.Iso26262.Project_metrics.multi_exit_frac;
      Alcotest.(check (float 0.0)) (label "param validation")
        (R.Defensive.param_validation_ratio all)
        pm.Iso26262.Project_metrics.param_validation_ratio;
      Alcotest.(check int) (label "assertions") (R.Defensive.assertion_count all)
        pm.Iso26262.Project_metrics.assertions;
      Alcotest.(check int) (label "style") (List.length (R.Style.of_files files))
        pm.Iso26262.Project_metrics.style_findings;
      Alcotest.(check bool) (label "cuda census") true
        (pm.Iso26262.Project_metrics.cuda = R.Cuda_census.of_files files);
      Alcotest.(check (list string)) (label "recursive functions")
        (Cfront.Callgraph.recursive_functions
           pm.Iso26262.Project_metrics.interproc.Interproc.Summary.graph)
        pm.Iso26262.Project_metrics.recursive_functions)
    [ 7; 2019 ]

let () =
  Alcotest.run "metrics"
    [
      ( "complexity",
        [
          Alcotest.test_case "straight line" `Quick test_cc_straight_line;
          Alcotest.test_case "if" `Quick test_cc_if;
          Alcotest.test_case "if-else" `Quick test_cc_if_else;
          Alcotest.test_case "nested ifs" `Quick test_cc_nested_ifs;
          Alcotest.test_case "short circuit" `Quick test_cc_short_circuit;
          Alcotest.test_case "loops" `Quick test_cc_loops;
          Alcotest.test_case "switch cases" `Quick test_cc_switch_cases;
          Alcotest.test_case "ternary" `Quick test_cc_ternary;
          Alcotest.test_case "buckets" `Quick test_cc_buckets;
          Alcotest.test_case "nesting depth" `Quick test_nesting_depth;
          QCheck_alcotest.to_alcotest prop_cc_at_least_one;
        ] );
      ( "loc",
        [
          Alcotest.test_case "counts" `Quick test_loc_counts;
          Alcotest.test_case "add" `Quick test_loc_add;
        ] );
      ( "func-shape",
        [
          Alcotest.test_case "single exit" `Quick test_shape_single_exit;
          Alcotest.test_case "two returns" `Quick test_shape_two_returns;
          Alcotest.test_case "return not last" `Quick test_shape_return_not_last;
          Alcotest.test_case "goto counted" `Quick test_shape_goto_counted;
          Alcotest.test_case "throw is exit" `Quick test_shape_throw_is_exit;
          Alcotest.test_case "multi-exit fraction" `Quick test_multi_exit_fraction;
        ] );
      ( "casts",
        [
          Alcotest.test_case "explicit kinds" `Quick test_casts_explicit;
          Alcotest.test_case "implicit narrowing" `Quick test_casts_implicit_narrowing;
          Alcotest.test_case "implicit widening init" `Quick test_casts_implicit_widening_in_init;
          Alcotest.test_case "clean code" `Quick test_casts_none_for_matching_types;
        ] );
      ( "globals",
        [
          Alcotest.test_case "census" `Quick test_globals_census;
          Alcotest.test_case "uninitialized" `Quick test_globals_uninitialized;
        ] );
      ( "uninit",
        [
          Alcotest.test_case "basic" `Quick test_uninit_basic;
          Alcotest.test_case "initialized clean" `Quick test_uninit_initialized_clean;
          Alcotest.test_case "branch read" `Quick test_uninit_branch_read;
          Alcotest.test_case "branch assign insufficient" `Quick
            test_uninit_branch_assign_then_read;
          Alcotest.test_case "definite assignment" `Quick test_uninit_definite_assignment;
          Alcotest.test_case "address-of is write" `Quick
            test_uninit_address_of_counts_as_write;
          Alcotest.test_case "arrays exempt" `Quick test_uninit_arrays_exempt;
        ] );
      ( "pointers",
        [
          Alcotest.test_case "usage" `Quick test_pointer_usage;
          Alcotest.test_case "dyn alloc kinds" `Quick test_dyn_alloc_kinds;
        ] );
      ( "shadowing",
        [
          Alcotest.test_case "kinds" `Quick test_shadowing_kinds;
          Alcotest.test_case "duplicate globals" `Quick test_duplicate_globals_across_files;
          Alcotest.test_case "clean" `Quick test_no_shadowing_clean;
          Alcotest.test_case "matches List.mem oracle, corpus"
            `Quick test_shadowing_matches_reference_corpus;
          Alcotest.test_case "matches List.mem oracle, edges"
            `Quick test_shadowing_matches_reference_edges;
        ] );
      ( "naming",
        [
          Alcotest.test_case "compliant" `Quick test_naming_compliant;
          Alcotest.test_case "violations" `Quick test_naming_violations;
          Alcotest.test_case "member underscore" `Quick test_naming_member_trailing_underscore;
          Alcotest.test_case "constants" `Quick test_naming_constant;
        ] );
      ( "style",
        [
          Alcotest.test_case "long line" `Quick test_style_long_line;
          Alcotest.test_case "tab and trailing" `Quick test_style_tab_and_trailing;
          Alcotest.test_case "odd indent" `Quick test_style_odd_indent;
          Alcotest.test_case "brace spacing" `Quick test_style_brace_spacing;
          Alcotest.test_case "clean source" `Quick test_style_clean_source;
        ] );
      ( "defensive",
        [
          Alcotest.test_case "param validated" `Quick test_defensive_param_validated;
          Alcotest.test_case "param unchecked" `Quick test_defensive_param_unchecked;
          Alcotest.test_case "ignored returns" `Quick test_defensive_ignored_returns;
          Alcotest.test_case "assertions" `Quick test_defensive_assertions;
        ] );
      ( "census",
        [
          Alcotest.test_case "small corpus equals the former walks" `Quick test_census_corpus;
          Alcotest.test_case "yolo and stencil equal the former walks" `Quick
            test_census_embedded;
          Alcotest.test_case "edge cases" `Quick test_census_edges;
          Alcotest.test_case "core metrics equal the former walks" `Quick
            test_core_matches_former_walks;
        ] );
      ( "architecture",
        [
          Alcotest.test_case "coupling" `Quick test_architecture_coupling;
          Alcotest.test_case "thread marker" `Quick test_architecture_thread_marker;
          Alcotest.test_case "namespace depth" `Quick test_namespace_depth;
          Alcotest.test_case "module loc and globals equal per-module walks" `Quick
            test_module_counts_match_per_module_walks;
        ] );
    ]
