(* Tests for the MISRA C:2012-subset rule engine and the CUDA extension
   rules: for each rule, a violating snippet and a clean one. *)

let ctx_of src =
  let pf =
    Cfront.Project.parsed_file
      { Cfront.Project.path = "r.cc"; modname = "r"; header = false; content = src }
      (Cfront.Parser.parse_file ~file:"r.cc" src)
  in
  Fixture.context_of_files [ pf ]

let violations rule_id src =
  match Misra.Registry.find_rule rule_id with
  | None -> Alcotest.failf "rule %s not registered" rule_id
  | Some rule -> rule.Misra.Rule.check (ctx_of src)

let check_hits rule_id src expected () =
  Alcotest.(check int)
    (Printf.sprintf "rule %s hits" rule_id)
    expected
    (List.length (violations rule_id src))

let case name rule_id src expected =
  Alcotest.test_case name `Quick (check_hits rule_id src expected)

(* handy snippets *)
let fn body = Printf.sprintf "int F(int a, int b) {\n%s\n}" body

(* Rule 8.9 as it stood before it tracked only the globals: a list of
   users per identifier, extended after a [List.mem] test on every use.
   It is the oracle the linear rule must reproduce violation for
   violation, in order. *)
let reference_8_9 (ctx : Misra.Rule.context) =
  let users = Hashtbl.create 64 in
  List.iter
    (fun (fn : Cfront.Ast.func) ->
      Cfront.Ast.iter_exprs_of_func
        (fun e ->
          match e.Cfront.Ast.e with
          | Cfront.Ast.Id name ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt users name) in
            let q = Cfront.Ast.qualified_name fn in
            if not (List.mem q cur) then Hashtbl.replace users name (q :: cur)
          | _ -> ())
        fn)
    ctx.Misra.Rule.functions;
  List.filter_map
    (fun (g : Metrics.Globals.record) ->
      match Hashtbl.find_opt users g.Metrics.Globals.name with
      | Some [ only ] ->
        Some
          (Misra.Rule.v ~rule_id:"8.9" ~loc:g.Metrics.Globals.loc
             "global %s used only by %s" g.Metrics.Globals.name only)
      | _ -> None)
    ctx.Misra.Rule.globals

let rule_8_9 = Option.get (Misra.Registry.find_rule "8.9")

let check_8_9_matches_reference label ctx =
  let got = rule_8_9.Misra.Rule.check ctx in
  Alcotest.(check (list string)) (label ^ ": same messages")
    (List.map (fun v -> v.Misra.Rule.message) (reference_8_9 ctx))
    (List.map (fun v -> v.Misra.Rule.message) got);
  Alcotest.(check bool) (label ^ ": same violations") true (reference_8_9 ctx = got);
  got

(* The generated corpus has no single-user global, so each seed is
   checked twice: as generated, and with one more file in which every
   second global gets a new user, and every sixth a second new user. *)
let with_users_file (pfs : Cfront.Project.parsed_file list) =
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
              (if i mod 2 = 0 then [ Printf.sprintf "int Use%d() { return %s; }" i name ]
               else [])
              @
              if i mod 6 = 0 then [ Printf.sprintf "int Again%d() { return %s; }" i name ]
              else [])
            names))
  in
  let path = "users.cc" in
  pfs
  @ [ Cfront.Project.parsed_file
        { Cfront.Project.path; modname = "users"; header = false; content = src }
        (Cfront.Parser.parse_file ~file:path src) ]

let test_8_9_matches_reference_corpus () =
  List.iter
    (fun seed ->
      let parsed =
        Cfront.Project.parse (Corpus.Generator.generate ~seed Corpus.Apollo_profile.small)
      in
      ignore
        (check_8_9_matches_reference (Printf.sprintf "small seed %d" seed)
           (Misra.Rule.build_context parsed));
      let got =
        check_8_9_matches_reference
          (Printf.sprintf "small seed %d with a users file" seed)
          (Fixture.context_of_files (with_users_file parsed.Cfront.Project.files))
      in
      Alcotest.(check bool) "single-user globals are found" true (got <> []))
    [ 7; 2019 ]

let test_8_9_matches_reference_edges () =
  let cases =
    [
      ( "overloads sharing a qualified name are one user",
        "int g_o = 0;\nint F(int a) { return g_o + a; }\nint F(double a) { return g_o; }",
        1 );
      ("global used by two functions", "int g_t = 0;\nint F() { return g_t; }\nint G() { return g_t; }", 0);
      ("global used by none", "int g_n = 0;\nint F(int a) { return a; }", 0);
      ( "local named like a global counts its function",
        "int g_l = 0;\nint F(int a) { int g_l = a; return g_l; }\nint G() { return g_l; }",
        0 );
      ( "local named like a global, one function",
        "int g_m = 0;\nint F(int a) { int g_m = a; return g_m; }",
        1 );
      ( "same function twice counts once",
        "int g_r = 0;\nint F(int a) { g_r = a; return g_r + g_r; }",
        1 );
      ( "methods of two classes are two users",
        "int g_c = 0;\nclass A { int M() { return g_c; } };\nclass B { int M() { return g_c; } };",
        0 );
    ]
  in
  List.iter
    (fun (label, src, expected) ->
      let got = check_8_9_matches_reference label (ctx_of src) in
      Alcotest.(check int) (label ^ ": violations") expected (List.length got))
    cases

let control_cases =
  [
    case "2.1 unreachable after return" "2.1" (fn "return a; a = 1;") 1;
    case "2.1 label after return ok" "2.1" (fn "if (a > 0) { goto l; } return a; l: return b;") 0;
    case "12.3 comma flagged" "12.3" (fn "a = 1, b = 2; return a;") 1;
    case "12.3 clean" "12.3" (fn "a = 1; b = 2; return a;") 0;
    case "13.4 assignment in if" "13.4" (fn "if ((a = b)) { return 1; } return 0;") 1;
    case "13.4 comparison clean" "13.4" (fn "if (a == b) { return 1; } return 0;") 0;
    case "14.1 float loop counter" "14.1"
      (fn "for (float x = 0.0f; x < 1.0f; x += 0.1f) { a++; } return a;") 1;
    case "14.1 int counter clean" "14.1" (fn "for (int i = 0; i < 3; ++i) { a++; } return a;") 0;
    case "14.3 constant condition" "14.3" (fn "if (1) { return a; } return b;") 1;
    case "14.3 do-while-zero idiom ok" "14.3" (fn "do { a++; } while (0); return a;") 0;
    case "15.1 goto" "15.1" (fn "goto out; out: return a;") 1;
    case "15.2 backward goto" "15.2"
      (fn "back: a++;\nif (a < 10) {\n  goto back;\n}\nreturn a;") 1;
    case "15.2 forward goto clean" "15.2" (fn "if (a > 0) { goto out; } a = 1; out: return a;") 0;
    case "15.4 two breaks in one loop" "15.4"
      (fn "while (a > 0) { if (b > 0) { break; } if (b < 0) { break; } a--; } return a;") 1;
    case "15.4 one break clean" "15.4"
      (fn "while (a > 0) { if (b > 0) { break; } a--; } return a;") 0;
    case "15.5 multiple returns" "15.5" (fn "if (a > 0) { return 1; } return 0;") 1;
    case "15.5 single return clean" "15.5" (fn "int r = a; return r;") 0;
    case "15.6 unbraced if body" "15.6" (fn "if (a > 0) a = 1; return a;") 1;
    case "15.6 else-if chain allowed" "15.6"
      (fn "if (a > 0) { a = 1; } else if (b > 0) { a = 2; } else { a = 3; } return a;") 0;
    case "15.7 missing final else" "15.7"
      (fn "if (a > 0) { a = 1; } else if (b > 0) { a = 2; } return a;") 1;
    case "16.3 fallthrough" "16.3"
      (fn "switch (a) { case 0: a = 1; case 1: a = 2; break; default: break; } return a;") 1;
    case "16.3 terminated clauses clean" "16.3"
      (fn "switch (a) { case 0: a = 1; break; case 1: a = 2; break; default: break; } return a;") 0;
    case "16.4 no default" "16.4" (fn "switch (a) { case 0: a = 1; break; case 2: break; } return a;") 1;
    case "16.6 single clause" "16.6" (fn "switch (a) { default: a = 1; break; } return a;") 1;
  ]

let type_cases =
  [
    case "2.2 effect-free statement" "2.2" (fn "a == b; return a;") 1;
    case "2.2 call statement ok" "2.2" (fn "G(a); return a;") 0;
    case "5.1 long identifier" "5.1"
      "int ThisIdentifierIsWayTooLongForLegacyLinkers123(int a) { return a; }" 1;
    case "5.3 shadowing via engine" "5.3"
      (fn "int local = a; if (a > 0) { int local = b; local++; } return local;") 1;
    case "7.1 octal constant" "7.1" (fn "a = 0755; return a;") 1;
    case "7.1 zero is fine" "7.1" (fn "a = 0; return a;") 0;
    case "10.3 implicit narrowing" "10.3" "int F(float x) { int a = 0; a = x; return a; }" 1;
    case "11.3 pointer C-cast" "11.3" "void F(void* p) { float* f = (float*)p; f[0] = 0.0f; }" 1;
    case "11.8 const_cast" "11.8"
      "void F(const int* p) { int* q = const_cast<int*>(p); q[0] = 1; }" 1;
    case "11.9 NULL macro" "11.9" "void F(int* p) { if (p == NULL) { return; } }" 1;
    case "11.9 nullptr clean" "11.9" "void F(int* p) { if (p == nullptr) { return; } }" 0;
    case "12.2 oversized shift" "12.2" (fn "a = b << 40; return a;") 1;
    case "12.2 small shift clean" "12.2" (fn "a = b << 3; return a;") 0;
    case "13.5 side effect in &&" "13.5" (fn "if (a > 0 && b++ > 0) { return 1; } return 0;") 1;
    case "18.5 three-level pointer" "18.5" "void F(int*** ppp) { ppp = 0; }" 1;
    case "18.5 two-level pointer ok" "18.5" "void F(int** pp) { pp = 0; }" 0;
  ]

let function_cases =
  [
    case "2.7 unused parameter" "2.7" "int F(int used, int unused) { return used; }" 1;
    case "8.9 single-user global" "8.9"
      "int g_only = 0;\nint F(int a) { return g_only + a; }" 1;
    case "8.9 shared global clean" "8.9"
      "int g_two = 0;\nint F(int a) { return g_two + a; }\nint G(int a) { return g_two - a; }" 0;
    Alcotest.test_case "8.9 matches List.mem oracle, corpus" `Quick
      test_8_9_matches_reference_corpus;
    Alcotest.test_case "8.9 matches List.mem oracle, edges" `Quick
      test_8_9_matches_reference_edges;
    case "8.10 inline not static" "8.10" "inline int F(int a) { return a; }" 1;
    case "8.10 static inline ok" "8.10" "static inline int F(int a) { return a; }" 0;
    case "9.1 uninitialized read" "9.1" (fn "int x; return a + x;") 1;
    case "17.1 variadic" "17.1" "int F(int a, ...) { return a; }" 1;
    case "17.2 recursion" "17.2" "int F(int n) { if (n <= 0) { return 0; } return F(n - 1); }" 1;
    case "17.7 discarded return" "17.7"
      "int Make(int a) { return a; }\nvoid Use(int a) { Make(a); }" 1;
    case "17.8 parameter modified" "17.8" "int F(int a) { a = a + 1; return a; }" 1;
    case "21.3 malloc" "21.3" "void F(int n) { int* p = (int*)malloc(n * sizeof(int)); free(p); }" 1;
    case "21.6 printf" "21.6" "void F(int a) { printf(\"%d\", a); }" 1;
    case "21.8 exit" "21.8" "void F(int a) { if (a < 0) { exit(1); } }" 1;
  ]

let preproc_cases =
  [
    case "4.9 function-like macro" "4.9" "#define MIN(a, b) ((a) < (b) ? (a) : (b))\nint g_x = 0;" 1;
    case "19.2 union keyword" "19.2" "int F(int a) { return a; } // union in comment does not count" 0;
    case "20.5 undef" "20.5" "#define A 1\n#undef A\nint g_x = 0;" 1;
    case "21.1 reserved redefinition" "21.1" "#define assert 1\nint g_x = 0;" 1;
    case "D4.4 commented-out code" "D4.4" "// a = b + 1;\nint g_x = 0;" 1;
  ]

let cuda_cases =
  [
    case "CUDA-1 unguarded kernel" "CUDA-1"
      "__global__ void K(float* p, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; p[i] = 0.0f; }" 1;
    case "CUDA-1 guarded kernel clean" "CUDA-1"
      "__global__ void K(float* p, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { p[i] = 0.0f; } }" 0;
    case "CUDA-2 device allocation" "CUDA-2"
      "__device__ void D(int n) { int* p = (int*)malloc(n); free(p); }" 1;
    case "CUDA-3 unbalanced cudaMalloc" "CUDA-3"
      "void F(int n) { float* d; cudaMalloc((void**)&d, n); }" 1;
    case "CUDA-3 balanced clean" "CUDA-3"
      "void F(int n) { float* d; cudaMalloc((void**)&d, n); cudaFree(d); }" 0;
    case "CUDA-4 unchecked launch" "CUDA-4"
      "__global__ void K(int n) { }\nvoid F() { K<<<1, 32>>>(4); }" 1;
    case "CUDA-4 checked launch clean" "CUDA-4"
      "__global__ void K(int n) { }\nvoid F() { K<<<1, 32>>>(4); cudaDeviceSynchronize(); }" 0;
    case "CUDA-5 recursive device fn" "CUDA-5"
      "__device__ int D(int n) { if (n <= 0) { return 0; } return D(n - 1); }" 1;
    case "CUDA-6 pointer-heavy kernel" "CUDA-6"
      "__global__ void K(float* a, float* b, float* c, float* d, float* e, int n) { }" 1;
  ]

let extended_cases =
  [
    case "8.2 unnamed parameter" "8.2" "int F(int, int named) { return named; }" 1;
    case "8.2 named params clean" "8.2" "int F(int a, int b) { return a + b; }" 0;
    case "14.4 arithmetic condition" "14.4" (fn "if (a) { return 1; } return 0;") 1;
    case "14.4 comparison clean" "14.4" (fn "if (a != 0) { return 1; } return 0;") 0;
    case "16.5 default in the middle" "16.5"
      (fn "switch (a) { case 0: break; default: break; case 1: break; } return a;") 1;
    case "16.5 default last clean" "16.5"
      (fn "switch (a) { case 0: break; case 1: break; default: break; } return a;") 0;
    case "16.7 boolean switch expression" "16.7"
      (fn "switch (a > 0) { case 0: return 1; default: return 2; }") 1;
    case "17.4 missing return path" "17.4"
      "int F(int a) { if (a > 0) { return 1; } }" 1;
    case "17.4 both branches return" "17.4"
      "int F(int a) { if (a > 0) { return 1; } else { return 0; } }" 0;
    case "17.4 switch all clauses return" "17.4"
      "int F(int a) { switch (a) { case 0: return 1; default: return 2; } }" 0;
    case "18.4 pointer plus" "18.4"
      "float F(float* p, int i) { float* q = p + i; return q[0]; }" 1;
    case "18.4 indexing clean" "18.4" "float F(float* p, int i) { return p[i]; }" 0;
    case "21.7 atoi" "21.7" "int F(char* s) { return atoi(s); }" 1;
    case "21.9 qsort" "21.9" "void F(int* a, int n) { qsort(a, n, 1, 0); }" 1;
    case "21.10 time" "21.10" "int F() { return (int)time(0); }" 1;
    case "8.7 single-unit function" "8.7"
      "int Local(int a) { return a; }\nint Caller(int a) { return Local(a); }" 1;
    case "8.7 static clean" "8.7"
      "static int Local(int a) { return a; }\nint Caller(int a) { return Local(a); }" 0;
  ]

let wave3_cases =
  [
    case "3.1 nested block opener" "3.1" "/* outer /* inner */\nint g_x = 0;" 1;
    case "3.1 clean comments" "3.1" "// fine\n/* also fine */\nint g_x = 0;" 0;
    case "10.4 mixed arithmetic" "10.4" "float F(int n, float x) { return n + x; }" 1;
    case "10.4 same types clean" "10.4" "float F(float y, float x) { return y + x; }" 0;
    case "13.3 increment with call" "13.3" (fn "G(a++); return a;") 1;
    case "13.3 lone increment clean" "13.3" (fn "a++; return a;") 0;
    case "13.6 side effect in sizeof" "13.6" (fn "a = sizeof b++; return a;") 1;
    case "13.6 pure sizeof clean" "13.6" (fn "a = sizeof b; return a;") 0;
    case "18.6 returning local address" "18.6"
      "int* F(int a) { int local = a; return &local; }" 1;
    case "18.6 returning param pointer ok" "18.6" "int* F(int* p) { return p; }" 0;
    case "21.4 setjmp" "21.4" "int F(int* env) { return setjmp(env); }" 1;
    case "21.5 signal" "21.5" "void F() { signal(2, 0); }" 1;
  ]

(* 16.2: nested case labels need multi-statement construction *)
let test_16_2_nested_case () =
  let src =
    fn "switch (a) {\n  case 0:\n    if (b > 0) {\n      case 1: b = 2;\n    }\n    break;\n  default: break;\n}\nreturn b;"
  in
  Alcotest.(check int) "nested case flagged" 1 (List.length (violations "16.2" src))

(* registry-level behaviour *)
let test_registry_runs_all () =
  let report = Misra.Registry.run (ctx_of "int F(int a) { return a; }") in
  Alcotest.(check int) "all rules ran" (List.length Misra.Registry.all_rules)
    report.Misra.Registry.rules_checked;
  Alcotest.(check bool) "compliance in [0,1]" true
    (Misra.Registry.rule_compliance report >= 0.0
     && Misra.Registry.rule_compliance report <= 1.0)

let test_registry_by_category () =
  let report = Misra.Registry.run (ctx_of "void F(int n) { int* p = (int*)malloc(n); free(p); }") in
  let by_cat = Misra.Registry.by_category report in
  let required = List.assoc Misra.Rule.Required by_cat in
  Alcotest.(check bool) "required violations found" true (required > 0)

let test_registry_rule_subset () =
  let rules = [ Option.get (Misra.Registry.find_rule "15.1") ] in
  let report = Misra.Registry.run ~rules (ctx_of (fn "goto out; out: return a;")) in
  Alcotest.(check int) "only selected rule" 1 report.Misra.Registry.rules_checked;
  Alcotest.(check int) "one violation" 1 report.Misra.Registry.total_violations

let test_render_summary () =
  let report = Misra.Registry.run (ctx_of "int F(int a) { return a; }") in
  let s = Misra.Registry.render_summary report in
  Alcotest.(check bool) "mentions a rule id" true (Util.Strutil.contains_sub ~sub:"15.1" s)

(* The producer sequence [Audit.run] ran inline before
   [Rule.build_context] took it over, kept as the oracle: the dataflow
   facts, interproc over them, then the context record the former
   [make_context ~facts ~interproc] assembled. *)
let reference_context (parsed : Cfront.Project.parsed) =
  let facts = List.concat_map snd (Dataflow.Analyses.facts_of_parsed parsed) in
  let interproc = Interproc.Summary.analyze ~facts parsed in
  let files = parsed.Cfront.Project.files in
  let functions = Cfront.Project.defined_functions files in
  ignore (Dataflow.Analyses.pair_facts functions facts);
  let globals = Metrics.Globals.of_files files in
  { Misra.Rule.files; functions; facts; interproc; globals;
    shadowing = Metrics.Shadowing.of_globals ~globals files }

let test_build_context_matches_reference () =
  List.iter
    (fun seed ->
      let parsed =
        Cfront.Project.parse (Corpus.Generator.generate ~seed Corpus.Apollo_profile.small)
      in
      let label what = Printf.sprintf "small seed %d: %s" seed what in
      let got = Misra.Rule.build_context parsed and want = reference_context parsed in
      Alcotest.(check bool) (label "facts") true (compare got.Misra.Rule.facts want.Misra.Rule.facts = 0);
      Alcotest.(check bool) (label "interproc") true
        (compare got.Misra.Rule.interproc want.Misra.Rule.interproc = 0);
      Alcotest.(check bool) (label "globals") true
        (compare got.Misra.Rule.globals want.Misra.Rule.globals = 0);
      Alcotest.(check bool) (label "shadowing") true
        (compare got.Misra.Rule.shadowing want.Misra.Rule.shadowing = 0);
      (* [compare], not [=]: the reports hold the registry's (shared) rule
         closures. *)
      Alcotest.(check bool) (label "MISRA report") true
        (compare (Misra.Registry.run got) (Misra.Registry.run want) = 0))
    [ 7; 2019 ]

let prop_rules_never_fire_on_minimal =
  QCheck.Test.make ~name:"rule engine is deterministic" ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
      let specs = [ List.hd Corpus.Apollo_profile.small ] in
      let project = Corpus.Generator.generate ~seed specs in
      let parsed = Cfront.Project.parse project in
      let r1 = Misra.Registry.run (Misra.Rule.build_context parsed) in
      let r2 = Misra.Registry.run (Misra.Rule.build_context parsed) in
      r1.Misra.Registry.total_violations = r2.Misra.Registry.total_violations)

let () =
  Alcotest.run "misra"
    [
      ("control-flow rules", control_cases);
      ("type and expression rules", type_cases);
      ("function and memory rules", function_cases);
      ("preprocessor rules", preproc_cases);
      ( "extended rules",
        extended_cases
        @ [ Alcotest.test_case "16.2 nested case" `Quick test_16_2_nested_case ] );
      ("wave3 rules", wave3_cases);
      ("cuda extension rules", cuda_cases);
      ( "registry",
        [
          Alcotest.test_case "runs all rules" `Quick test_registry_runs_all;
          Alcotest.test_case "by category" `Quick test_registry_by_category;
          Alcotest.test_case "rule subset" `Quick test_registry_rule_subset;
          Alcotest.test_case "render summary" `Quick test_render_summary;
          QCheck_alcotest.to_alcotest prop_rules_never_fire_on_minimal;
          Alcotest.test_case "build_context matches the former audit sequence" `Quick
            test_build_context_matches_reference;
        ] );
    ]
