(* Tests for the coverage library: memory model, interpreter semantics,
   instrumentation, branch accounting and MC/DC. *)

let parse src = Cfront.Parser.parse_file ~file:"c.cu" src

(* Run a program and return (exit value result, output, collector, tus). *)
let run ?(entry = "main") src =
  let tu = parse src in
  Alcotest.(check (list string)) "parses clean" [] tu.Cfront.Ast.diags;
  let col = Coverage.Collector.create () in
  let result, env =
    Fixture.run_coverage ~hooks:(Coverage.Collector.hooks col) ~entry [ tu ]
  in
  (result, Coverage.Runtime.output env, col, tu)

let run_ok ?entry src =
  match run ?entry src with
  | Ok v, out, col, tu -> (v, out, col, tu)
  | Error e, _, _, _ -> Alcotest.failf "runtime error: %s" e

let exit_int ?entry src =
  let v, _, _, _ = run_ok ?entry src in
  Coverage.Value.as_int v

let check_exit name expected src =
  Alcotest.(check int64) name expected (exit_int src)

(* ------------------------------------------------------------------ *)
(* Memory                                                               *)
(* ------------------------------------------------------------------ *)

let test_memory_alloc_load_store () =
  let m = Coverage.Memory.create () in
  let p = Coverage.Memory.alloc m 4 in
  Coverage.Memory.store m (Coverage.Memory.shift p 2) (Coverage.Value.Vint 9L);
  Alcotest.(check int64) "stored" 9L
    (Coverage.Value.as_int (Coverage.Memory.load m (Coverage.Memory.shift p 2)))

let test_memory_out_of_bounds () =
  let m = Coverage.Memory.create () in
  let p = Coverage.Memory.alloc m 2 in
  (try
     ignore (Coverage.Memory.load m (Coverage.Memory.shift p 5));
     Alcotest.fail "expected fault"
   with Coverage.Memory.Fault _ -> ())

let test_memory_double_free () =
  let m = Coverage.Memory.create () in
  let p = Coverage.Memory.alloc m 1 in
  Coverage.Memory.free m p;
  (try
     Coverage.Memory.free m p;
     Alcotest.fail "expected fault"
   with Coverage.Memory.Fault _ -> ())

let test_memory_copy_fill () =
  let m = Coverage.Memory.create () in
  let a = Coverage.Memory.alloc m 3 and b = Coverage.Memory.alloc m 3 in
  Coverage.Memory.fill m ~dst:a (Coverage.Value.Vint 7L) 3;
  Coverage.Memory.copy m ~src:a ~dst:b 3;
  Alcotest.(check int64) "copied" 7L
    (Coverage.Value.as_int (Coverage.Memory.load m (Coverage.Memory.shift b 2)))

let test_value_truthiness () =
  Alcotest.(check bool) "zero false" false (Coverage.Value.truthy (Coverage.Value.Vint 0L));
  Alcotest.(check bool) "nonzero true" true (Coverage.Value.truthy (Coverage.Value.Vint 2L));
  Alcotest.(check bool) "null false" false (Coverage.Value.truthy Coverage.Value.Vnull);
  Alcotest.(check bool) "0.0 false" false (Coverage.Value.truthy (Coverage.Value.Vfloat 0.0))

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                                *)
(* ------------------------------------------------------------------ *)

let test_interp_arithmetic () =
  check_exit "int arith" 17L "int main() { return 3 + 4 * 3 + 10 % 4; }"

(* C reads a leading 0 as octal: 0755 is 493, 010 is 8. *)
let test_interp_octal_literals () =
  check_exit "octal" 501L "int main() { int a[010]; a[7] = 0755; return a[7] + 010; }"

let test_interp_float_arith () =
  check_exit "float to int at return" 7L
    "int main() { float x = 2.5f; float y = 3.0f; return (int)(x * y - 0.5f); }"

let test_interp_division_by_zero () =
  match run "int main() { int z = 0; return 4 / z; }" with
  | Error e, _, _, _ ->
    Alcotest.(check bool) "mentions division" true
      (Util.Strutil.contains_sub ~sub:"division" e)
  | Ok _, _, _, _ -> Alcotest.fail "expected error"

let test_interp_compound_assign () =
  check_exit "compound ops" 12L
    "int main() { int a = 3; a += 5; a *= 2; a -= 4; return a; }"

let test_interp_incdec () =
  check_exit "pre/post" 4L
    "int main() { int a = 1; int b = a++; int c = ++a; return a + b - c + 3; }"

let test_interp_pointers_and_arrays () =
  check_exit "array sum" 6L
    "int main() { int buf[3]; buf[0] = 1; buf[1] = 2; buf[2] = 3; \
     int* p = buf; return p[0] + *(p + 1) + p[2]; }"

let test_interp_struct_members () =
  check_exit "struct fields" 11L
    "struct P { int x; int y; };\n\
     int main() { P p; p.x = 4; p.y = 7; P* q = &p; return q->x + q->y; }"

let test_interp_struct_by_value () =
  check_exit "callee copy does not alias" 5L
    "struct P { int x; };\n\
     void Bump(P p) { p.x = 99; }\n\
     int main() { P p; p.x = 5; Bump(p); return p.x; }"

let test_interp_struct_assignment_copies () =
  check_exit "whole-struct assignment" 3L
    "struct P { int x; };\n\
     int main() { P a; a.x = 3; P b; b = a; a.x = 9; return b.x; }"

let test_interp_reference_params () =
  check_exit "reference aliases" 10L
    "void Set(int& out, int v) { out = v; }\n\
     int main() { int x = 0; Set(x, 10); return x; }"

let test_interp_globals () =
  check_exit "global state" 3L
    "int g_count = 0;\nvoid Tick() { g_count = g_count + 1; }\n\
     int main() { Tick(); Tick(); Tick(); return g_count; }"

let test_interp_enums () =
  check_exit "enum values" 7L
    "enum Mode { A, B = 5, C };\nint main() { return A + B + (C - 5) + 1; }"

let test_interp_switch_fallthrough () =
  check_exit "fallthrough accumulates" 3L
    "int main() { int r = 0; switch (1) { case 0: r += 10; case 1: r += 1; case 2: r += 2; } return r; }"

let test_interp_switch_default () =
  check_exit "default taken" 9L
    "int main() { switch (42) { case 0: return 1; default: return 9; } }"

let test_interp_goto_forward () =
  check_exit "goto skips" 1L
    "int main() { int r = 0; goto skip; r = 100; skip: r = r + 1; return r; }"

let test_interp_loops () =
  check_exit "nested loops with break/continue" 12L
    "int main() { int s = 0; for (int i = 0; i < 5; ++i) { if (i == 2) { continue; } \
     if (i == 4) { break; } s += i; } int j = 3; while (j > 0) { s += j; j--; } \
     do { s += 2; } while (0); return s; }"

let test_interp_short_circuit_no_side_effect () =
  check_exit "rhs not evaluated" 0L
    "int g_hit = 0;\nint Touch() { g_hit = 1; return 1; }\n\
     int main() { int a = 0; if (a > 0 && Touch() > 0) { return 99; } return g_hit; }"

let test_interp_ternary () =
  check_exit "ternary" 5L "int main() { int a = -1; return a > 0 ? 1 : 5; }"

let test_interp_recursion () =
  check_exit "factorial" 120L
    "int Fact(int n) { if (n <= 1) { return 1; } return n * Fact(n - 1); }\n\
     int main() { return Fact(5); }"

let test_interp_printf_output () =
  let _, out, _, _ =
    run_ok "int main() { printf(\"v=%d s=%s f=%f\\n\", 42, \"ok\", 1.5); return 0; }"
  in
  Alcotest.(check string) "formatted" "v=42 s=ok f=1.500000\n" out

let test_interp_math_builtins () =
  check_exit "sqrt and fmax" 7L
    "int main() { float a = sqrt(16.0); float b = fmax(a, 3.0); return (int)(b + 3.0); }"

let test_interp_memcpy_builtin () =
  check_exit "memcpy" 5L
    "int main() { int* a = (int*)malloc(2 * sizeof(int)); a[0] = 2; a[1] = 3; \
     int* b = (int*)malloc(2 * sizeof(int)); memcpy(b, a, 2); int r = b[0] + b[1]; \
     free(a); free(b); return r; }"

(* fmod(7.5,2)=1.5 -> 1; round(2.6)=3; min=4; max=2.5 -> 2; strlen=5;
   strcmp=0; total 15 *)
let test_interp_builtin_values () =
  Alcotest.(check int64) "sum" 15L
    (exit_int
       "int main() { \
        float m = fmod(7.5, 2.0); \
        float r = round(2.6); \
        int lo = (int)min(4, 9); \
        float hi = max(1.5, 2.5); \
        int len = strlen(\"hello\"); \
        int same = strcmp(\"a\", \"a\"); \
        return (int)m + (int)r + lo + (int)hi + len + same; }")

let test_interp_rand_deterministic () =
  let a = exit_int "int main() { srand(7); return rand() % 1000; }" in
  let b = exit_int "int main() { srand(7); return rand() % 1000; }" in
  Alcotest.(check int64) "same seed same value" a b

let test_interp_kernel_launch_grid () =
  check_exit "kernel touches every element" 28L
    "__global__ void Inc(int* p, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; \
     if (i < n) { p[i] = i; } }\n\
     int main() { int* d; cudaMalloc((void**)&d, 8 * sizeof(int)); \
     Inc<<<2, 4>>>(d, 8); int s = 0; for (int i = 0; i < 8; ++i) { s += d[i]; } \
     cudaFree(d); return s; }"

let test_interp_cuda_memcpy_roundtrip () =
  check_exit "host-device roundtrip" 6L
    "int main() { int* h = (int*)malloc(3 * sizeof(int)); h[0] = 1; h[1] = 2; h[2] = 3; \
     int* d; cudaMalloc((void**)&d, 3 * sizeof(int)); cudaMemcpy(d, h, 3, 1); \
     int* h2 = (int*)malloc(3 * sizeof(int)); cudaMemcpy(h2, d, 3, 2); \
     return h2[0] + h2[1] + h2[2]; }"

let test_interp_step_limit () =
  let tu = parse "int main() { while (1) { } return 0; }" in
  match fst (Fixture.run_coverage ~max_steps:10_000 [ tu ]) with
  | Error e -> Alcotest.(check bool) "step limit" true (Util.Strutil.contains_sub ~sub:"step" e)
  | Ok _ -> Alcotest.fail "expected step limit"

let test_interp_exceptions () =
  check_exit "try/catch" 3L
    "int main() { int r = 0; try { r = 1; throw 7; } catch (int e) { r = 3; } return r; }"

let test_interp_uncaught_throw () =
  match run "int main() { throw 5; }" with
  | Error e, _, _, _ ->
    Alcotest.(check bool) "uncaught" true (Util.Strutil.contains_sub ~sub:"exception" e)
  | Ok _, _, _, _ -> Alcotest.fail "expected error"

let test_interp_null_deref () =
  match run "int main() { int* p = nullptr; return *p; }" with
  | Error e, _, _, _ ->
    Alcotest.(check bool) "null deref" true (Util.Strutil.contains_sub ~sub:"null" e)
  | Ok _, _, _, _ -> Alcotest.fail "expected error"

let test_interp_multi_tu_program () =
  (* one compiled program takes each unit under its own path *)
  let tu1 =
    Cfront.Parser.parse_file ~file:"helper.cu" "int Helper(int a) { return a * 2; }"
  in
  let tu2 = parse "int main() { return Helper(21); }" in
  match fst (Fixture.run_coverage [ tu1; tu2 ]) with
  | Ok v -> Alcotest.(check int64) "cross-unit call" 42L (Coverage.Value.as_int v)
  | Error e -> Alcotest.failf "error: %s" e

(* Two units under one path would share an id tag, so their probes and
   collector keys would alias: assembling them into one program fails
   loudly. *)
let test_compile_rejects_shared_id_tag () =
  let tu1 = parse "int Helper(int a) { return a * 2; }" in
  let tu2 = parse "int main() { return Helper(21); }" in
  match Coverage.Compile.compile [ tu1; tu2 ] with
  | _ -> Alcotest.fail "same path twice must not compile"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names both units"
      "Coverage.Compile: units \"c.cu\" and \"c.cu\" share an id tag" msg

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                      *)
(* ------------------------------------------------------------------ *)

let points_of src =
  match Coverage.Instrument.of_tu (parse src) with
  | [ fp ] -> fp
  | _ -> Alcotest.fail "one function expected"

let test_instrument_counts () =
  let fp =
    points_of
      "int F(int a, int b) { int r = 0; if (a > 0 && b > 0) { r = 1; } \
       switch (a) { case 0: break; case 1: break; default: break; } return r; }"
  in
  Alcotest.(check int) "decisions" 1 (List.length fp.Coverage.Instrument.decisions);
  (match fp.Coverage.Instrument.decisions with
   | [ d ] -> Alcotest.(check int) "two conditions" 2 (List.length d.Coverage.Instrument.conditions)
   | _ -> ());
  (match fp.Coverage.Instrument.switches with
   | [ sw ] ->
     Alcotest.(check int) "clauses" 3 sw.Coverage.Instrument.clauses;
     Alcotest.(check bool) "has default" true sw.Coverage.Instrument.has_default
   | _ -> Alcotest.fail "one switch")

let test_instrument_ternary_is_decision () =
  let fp = points_of "int F(int a) { return a > 0 ? 1 : 2; }" in
  Alcotest.(check int) "ternary decision" 1 (List.length fp.Coverage.Instrument.decisions)

let test_instrument_not_transparent () =
  let fp = points_of "int F(int a, int b) { if (!(a > 0) && b > 0) { return 1; } return 0; }" in
  match fp.Coverage.Instrument.decisions with
  | [ d ] -> Alcotest.(check int) "negation transparent" 2 (List.length d.Coverage.Instrument.conditions)
  | _ -> Alcotest.fail "one decision"

(* ------------------------------------------------------------------ *)
(* Coverage accounting                                                  *)
(* ------------------------------------------------------------------ *)

let score src =
  let _, _, col, tu = run_ok src in
  let fps =
    List.filter
      (fun fp -> fp.Coverage.Instrument.fp_name <> "main")
      (Coverage.Instrument.of_tu tu)
  in
  Coverage.Collector.score_file col ~file:"c.cu" fps

let test_coverage_full () =
  let fc =
    score
      "int Abs(int a) { if (a < 0) { return 0 - a; } return a; }\n\
       int main() { return Abs(3) + Abs(-3); }"
  in
  Alcotest.(check (float 1e-6)) "stmt 100" 100.0 fc.Coverage.Collector.stmt_pct;
  Alcotest.(check (float 1e-6)) "branch 100" 100.0 fc.Coverage.Collector.branch_pct;
  Alcotest.(check (float 1e-6)) "mcdc 100" 100.0 fc.Coverage.Collector.mcdc_pct

let test_coverage_half_branch () =
  let fc =
    score
      "int Abs(int a) { if (a < 0) { return 0 - a; } return a; }\n\
       int main() { return Abs(3); }"
  in
  Alcotest.(check (float 1e-6)) "branch 50" 50.0 fc.Coverage.Collector.branch_pct;
  Alcotest.(check bool) "stmt partial" true (fc.Coverage.Collector.stmt_pct < 100.0)

let test_coverage_excluded_functions () =
  let fc =
    score
      "int Used(int a) { return a; }\nint Unused(int a) { return a * 2; }\n\
       int main() { return Used(1); }"
  in
  Alcotest.(check int) "one excluded" 1 fc.Coverage.Collector.excluded;
  Alcotest.(check (float 1e-6)) "covered part is full" 100.0 fc.Coverage.Collector.stmt_pct

let test_coverage_switch_clauses () =
  let fc =
    score
      "int Pick(int a) { switch (a) { case 0: return 1; case 1: return 2; default: return 3; } }\n\
       int main() { return Pick(0) + Pick(42); }"
  in
  (* 2 of 3 clauses taken *)
  Alcotest.(check (float 0.1)) "two thirds" 66.7 fc.Coverage.Collector.branch_pct

(* ------------------------------------------------------------------ *)
(* MC/DC                                                                *)
(* ------------------------------------------------------------------ *)

let mcdc_pct src = (score src).Coverage.Collector.mcdc_pct

let test_mcdc_single_condition_needs_both () =
  Alcotest.(check (float 1e-6)) "only true outcome: 0%" 0.0
    (mcdc_pct
       "int F(int a) { if (a > 0) { return 1; } return 0; }\n\
        int main() { return F(1); }");
  Alcotest.(check (float 1e-6)) "both outcomes: 100%" 100.0
    (mcdc_pct
       "int F(int a) { if (a > 0) { return 1; } return 0; }\n\
        int main() { return F(1) + F(-1); }")

let test_mcdc_and_pair () =
  (* vectors: (T,T)->T, (F,-)->F, (T,F)->F cover both conditions *)
  Alcotest.(check (float 1e-6)) "full mcdc for &&" 100.0
    (mcdc_pct
       "int F(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }\n\
        int main() { return F(1, 1) + F(-1, 1) + F(1, -1); }")

let test_mcdc_and_insufficient () =
  (* vectors: (T,T)->T and (F,-)->F: condition b never shown independent *)
  Alcotest.(check (float 1e-6)) "half mcdc" 50.0
    (mcdc_pct
       "int F(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }\n\
        int main() { return F(1, 1) + F(-1, 1); }")

let test_mcdc_or_masking () =
  (* For a||b: (F,F)->F, (F,T)->T covers b; (T,-)->T with (F,F)->F covers a
     under masking (the unevaluated b agrees with anything). *)
  Alcotest.(check (float 1e-6)) "or with masking" 100.0
    (mcdc_pct
       "int F(int a, int b) { if (a > 0 || b > 0) { return 1; } return 0; }\n\
        int main() { return F(-1, -1) + F(-1, 1) + F(1, -1); }")

(* ------------------------------------------------------------------ *)
(* Differential testing: random expressions evaluated by the interpreter
   must match a reference evaluation in OCaml.                          *)
(* ------------------------------------------------------------------ *)

type rexpr =
  | Lit of int
  | Add of rexpr * rexpr
  | Sub of rexpr * rexpr
  | Mul of rexpr * rexpr
  | Neg of rexpr
  | Ite of rcond * rexpr * rexpr

and rcond =
  | Lt of rexpr * rexpr
  | Eq of rexpr * rexpr
  | And of rcond * rcond
  | Or of rcond * rcond
  | Not of rcond

let rec eval_rexpr = function
  | Lit n -> Int64.of_int n
  | Add (a, b) -> Int64.add (eval_rexpr a) (eval_rexpr b)
  | Sub (a, b) -> Int64.sub (eval_rexpr a) (eval_rexpr b)
  | Mul (a, b) -> Int64.mul (eval_rexpr a) (eval_rexpr b)
  | Neg a -> Int64.neg (eval_rexpr a)
  | Ite (c, a, b) -> if eval_rcond c then eval_rexpr a else eval_rexpr b

and eval_rcond = function
  | Lt (a, b) -> Int64.compare (eval_rexpr a) (eval_rexpr b) < 0
  | Eq (a, b) -> Int64.equal (eval_rexpr a) (eval_rexpr b)
  | And (a, b) -> eval_rcond a && eval_rcond b
  | Or (a, b) -> eval_rcond a || eval_rcond b
  | Not a -> not (eval_rcond a)

let rec c_of_rexpr = function
  | Lit n -> string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (c_of_rexpr a) (c_of_rexpr b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (c_of_rexpr a) (c_of_rexpr b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (c_of_rexpr a) (c_of_rexpr b)
  | Neg a -> Printf.sprintf "(- %s)" (c_of_rexpr a)  (* space: "--" would lex as decrement *)
  | Ite (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (c_of_rcond c) (c_of_rexpr a) (c_of_rexpr b)

and c_of_rcond = function
  | Lt (a, b) -> Printf.sprintf "(%s < %s)" (c_of_rexpr a) (c_of_rexpr b)
  | Eq (a, b) -> Printf.sprintf "(%s == %s)" (c_of_rexpr a) (c_of_rexpr b)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (c_of_rcond a) (c_of_rcond b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (c_of_rcond a) (c_of_rcond b)
  | Not a -> Printf.sprintf "(!%s)" (c_of_rcond a)

let rexpr_gen =
  let open QCheck.Gen in
  let rec expr n =
    if n <= 0 then map (fun i -> Lit i) (int_range (-50) 50)
    else
      frequency
        [
          (2, map (fun i -> Lit i) (int_range (-50) 50));
          (2, map2 (fun a b -> Add (a, b)) (expr (n / 2)) (expr (n / 2)));
          (2, map2 (fun a b -> Sub (a, b)) (expr (n / 2)) (expr (n / 2)));
          (1, map2 (fun a b -> Mul (a, b)) (expr (n / 2)) (expr (n / 2)));
          (1, map (fun a -> Neg a) (expr (n - 1)));
          (2, map3 (fun c a b -> Ite (c, a, b)) (cond (n / 2)) (expr (n / 2)) (expr (n / 2)));
        ]
  and cond n =
    if n <= 0 then map2 (fun a b -> Lt (a, b)) (expr 0) (expr 0)
    else
      frequency
        [
          (2, map2 (fun a b -> Lt (a, b)) (expr (n / 2)) (expr (n / 2)));
          (1, map2 (fun a b -> Eq (a, b)) (expr (n / 2)) (expr (n / 2)));
          (1, map2 (fun a b -> And (a, b)) (cond (n / 2)) (cond (n / 2)));
          (1, map2 (fun a b -> Or (a, b)) (cond (n / 2)) (cond (n / 2)));
          (1, map (fun a -> Not a) (cond (n - 1)));
        ]
  in
  sized (fun n -> expr (Stdlib.min n 12))

let prop_interpreter_matches_reference =
  QCheck.Test.make ~name:"interpreter agrees with OCaml reference evaluation"
    ~count:200
    (QCheck.make ~print:c_of_rexpr rexpr_gen)
    (fun e ->
      let src = Printf.sprintf "int F() {\n  return %s;\n}" (c_of_rexpr e) in
      let tu = parse src in
      tu.Cfront.Ast.diags = []
      &&
      match fst (Fixture.run_coverage ~entry:"F" [ tu ]) with
      | Ok v -> Int64.equal (Coverage.Value.as_int v) (eval_rexpr e)
      | Error _ -> false)

let prop_mcdc_never_exceeds_branch_opportunities =
  QCheck.Test.make ~name:"coverage percentages stay in [0,100]" ~count:6
    QCheck.(int_range 1 200)
    (fun seed ->
      (* random-ish scenario selection over the YOLO subject *)
      ignore seed;
      let tus = Corpus.Yolo_src.parse_all () in
      let col = Coverage.Collector.create () in
      match fst (Fixture.run_coverage ~hooks:(Coverage.Collector.hooks col) tus) with
      | Error _ -> false
      | Ok _ ->
        List.for_all
          (fun (tu : Cfront.Ast.tu) ->
            let fc =
              Coverage.Collector.score_file col ~file:tu.Cfront.Ast.tu_file
                (Coverage.Instrument.of_tu tu)
            in
            let ok p = p >= 0.0 && p <= 100.0 in
            ok fc.Coverage.Collector.stmt_pct
            && ok fc.Coverage.Collector.branch_pct
            && ok fc.Coverage.Collector.mcdc_pct)
          tus)

let test_mcdc_suggest_vector () =
  (* a&&b seen only as (T,T)->T and (F,-)->F: condition b uncovered; the
     suggestion should flip b from its observed value *)
  let src =
    "int F(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }\n\
     int main() { return F(1, 1) + F(-1, 1); }"
  in
  let tu = parse src in
  let col = Coverage.Collector.create () in
  (match fst (Fixture.run_coverage ~hooks:(Coverage.Collector.hooks col) [ tu ]) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "run: %s" e);
  let fp =
    List.find
      (fun fp -> fp.Coverage.Instrument.fp_name = "F")
      (Coverage.Instrument.of_tu tu)
  in
  match fp.Coverage.Instrument.decisions with
  | [ d ] -> (
      match d.Coverage.Instrument.conditions with
      | [ _cond_a; cond_b ] -> (
          match
            Coverage.Mcdc.suggest_vector col.Coverage.Collector.mcdc
              ~decision_eid:d.Coverage.Instrument.d_eid ~cond_id:cond_b
          with
          | Some (flip_to, _base) ->
            (* b was observed true; the missing evidence needs b = false *)
            Alcotest.(check bool) "suggests flipping b to false" false flip_to
          | None -> Alcotest.fail "expected a suggestion")
      | _ -> Alcotest.fail "two conditions expected")
  | _ -> Alcotest.fail "one decision expected"

(* ------------------------------------------------------------------ *)
(* Gap-driven test generation                                           *)
(* ------------------------------------------------------------------ *)

let test_testgen_interesting_values () =
  let tu =
    parse
      "int F(int key) { switch (key) { case 3: return 1; case 7: return 2; default: return 0; } }"
  in
  match Cfront.Ast.functions_of_tu tu with
  | [ fn ] ->
    let vs = Coverage.Testgen.interesting_values fn in
    Alcotest.(check bool) "case labels found" true (List.mem 3 vs && List.mem 7 vs);
    Alcotest.(check bool) "default probe present" true (List.mem 99 vs)
  | _ -> Alcotest.fail "one function"

let test_testgen_comparison_boundaries () =
  let tu = parse "int F(int n) { if (n > 10) { return 1; } return 0; }" in
  match Cfront.Ast.functions_of_tu tu with
  | [ fn ] ->
    let vs = Coverage.Testgen.interesting_values fn in
    Alcotest.(check bool) "straddles the constant" true
      (List.mem 9 vs && List.mem 10 vs && List.mem 11 vs)
  | _ -> Alcotest.fail "one function"

let test_testgen_scalar_filter () =
  let tu = parse "int F(float* p) { return (int)p[0]; }\nint G(int a) { return a; }" in
  match Cfront.Ast.functions_of_tu tu with
  | [ f; g ] ->
    Alcotest.(check bool) "pointer params excluded" false
      (Coverage.Testgen.all_scalar_params f);
    Alcotest.(check bool) "scalar params included" true
      (Coverage.Testgen.all_scalar_params g)
  | _ -> Alcotest.fail "two functions"

let test_testgen_closes_yolo_gaps () =
  let tus = Corpus.Yolo_src.parse_all () in
  let measured = List.map fst Corpus.Yolo_src.measured_files in
  let r = Coverage.Testgen.close_gaps ~entry:Corpus.Yolo_src.entry ~measured tus in
  (* exact figures of the tree-walking run, which the bytecode engine
     must reproduce: the Figure 5 averages before, and after the probes *)
  let pct = Printf.sprintf "%.6f" in
  Alcotest.(check (list string)) "statement/branch before and after"
    [ "84.649705"; "79.875559"; "90.995706"; "87.483085" ]
    (List.map pct
       [ r.Coverage.Testgen.before_stmt; r.Coverage.Testgen.before_branch;
         r.Coverage.Testgen.after_stmt; r.Coverage.Testgen.after_branch ]);
  Alcotest.(check int) "plans generated" 6 (List.length r.Coverage.Testgen.plans);
  Alcotest.(check int) "probe calls synthesized" 34
    (List.fold_left
       (fun n p -> n + List.length p.Coverage.Testgen.args)
       0 r.Coverage.Testgen.plans);
  Alcotest.(check bool) "driver parses" true
    ((Cfront.Parser.parse_file ~file:"d.c" r.Coverage.Testgen.driver).Cfront.Ast.diags = [])

(* ------------------------------------------------------------------ *)
(* Merge-operator properties                                            *)
(*                                                                      *)
(* The scenario-parallel engine's correctness rests on the collector     *)
(* merge being a per-key count sum plus an MC/DC vector-set union —      *)
(* commutative and associative.  These properties drive random event     *)
(* streams into per-scenario collectors, then check that ANY partition   *)
(* of the scenarios into batches, merged in ANY order, fingerprints      *)
(* identically to the flat left-to-right merge (the sequential oracle).  *)
(* Seeding is explicit everywhere — no Random.self_init.                 *)
(* ------------------------------------------------------------------ *)

type cov_event =
  | Ev_stmt of int
  | Ev_decision of int * bool
  | Ev_switch of int * int
  | Ev_call of string
  | Ev_kernel of string
  | Ev_mcdc of int * (int * bool option) list * bool

let apply_event col ev =
  let bump tbl key =
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  match ev with
  | Ev_stmt sid -> bump col.Coverage.Collector.stmt_hits sid
  | Ev_decision (eid, o) -> bump col.Coverage.Collector.decision_outcomes (eid, o)
  | Ev_switch (sid, idx) -> bump col.Coverage.Collector.switch_hits (sid, idx)
  | Ev_call f -> bump col.Coverage.Collector.calls f
  | Ev_kernel k -> bump col.Coverage.Collector.kernel_launches k
  | Ev_mcdc (eid, conds, outcome) ->
    Coverage.Mcdc.record col.Coverage.Collector.mcdc ~decision_eid:eid ~conds
      ~outcome

let collector_of_events evs =
  let col = Coverage.Collector.create () in
  List.iter (apply_event col) evs;
  col

let cov_event_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map (fun i -> Ev_stmt i) (int_range 0 40));
      (3, map2 (fun i b -> Ev_decision (i, b)) (int_range 0 15) bool);
      (2, map2 (fun i j -> Ev_switch (i, j)) (int_range 0 8) (int_range 0 3));
      (2, map (fun i -> Ev_call ("f" ^ string_of_int i)) (int_range 0 9));
      (1, map (fun i -> Ev_kernel ("k" ^ string_of_int i)) (int_range 0 4));
      ( 3,
        map3
          (fun eid mask outcome ->
            (* three conditions; two mask bits each pick masked/T/F *)
            let conds =
              List.init 3 (fun c ->
                  ( c,
                    match (mask lsr (2 * c)) land 3 with
                    | 0 -> None
                    | 1 -> Some true
                    | _ -> Some false ))
            in
            Ev_mcdc (eid, conds, outcome))
          (int_range 0 6) (int_range 0 63) bool );
    ]

(* A "scenario" is one event stream; a test case is a few scenarios plus
   a seed driving the partition and merge order. *)
let scenario_streams_gen =
  QCheck.Gen.(
    pair
      (list_size (int_range 0 10) (list_size (int_range 0 30) cov_event_gen))
      (int_range 0 1_000_000))

let print_streams (streams, seed) =
  Printf.sprintf "seed=%d streams=%s" seed
    (String.concat ";"
       (List.map (fun evs -> string_of_int (List.length evs)) streams))

let prop_merge_partition_invariant =
  QCheck.Test.make
    ~name:"collector merge is partition- and order-invariant" ~count:150
    (QCheck.make ~print:print_streams scenario_streams_gen)
    (fun (streams, seed) ->
      let oracle =
        Coverage.Collector.fingerprint
          (Coverage.Collector.merge (List.map collector_of_events streams))
      in
      let st = Random.State.make [| seed; 0x26262 |] in
      (* partition the scenario list into k batches at random *)
      let k = 1 + Random.State.int st 4 in
      let batches = Array.make k [] in
      List.iter
        (fun evs ->
          let b = Random.State.int st k in
          batches.(b) <- evs :: batches.(b))
        streams;
      let batch_cols =
        Array.to_list
          (Array.map
             (fun evss ->
               Coverage.Collector.merge (List.map collector_of_events evss))
             batches)
      in
      (* merge the batch collectors in a random order *)
      let tagged =
        List.map (fun c -> (Random.State.bits st, c)) batch_cols
      in
      let shuffled =
        List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) tagged)
      in
      String.equal oracle
        (Coverage.Collector.fingerprint (Coverage.Collector.merge shuffled)))

let prop_merge_empty_identity =
  QCheck.Test.make ~name:"merging an empty collector changes nothing" ~count:100
    (QCheck.make ~print:print_streams scenario_streams_gen)
    (fun (streams, _seed) ->
      let col =
        Coverage.Collector.merge (List.map collector_of_events streams)
      in
      let before = Coverage.Collector.fingerprint col in
      Coverage.Collector.merge_into ~into:col (Coverage.Collector.create ());
      String.equal before (Coverage.Collector.fingerprint col))

let prop_mcdc_union_deduplicates =
  QCheck.Test.make
    ~name:"MC/DC vector union deduplicates across scenarios" ~count:100
    (QCheck.make ~print:print_streams scenario_streams_gen)
    (fun (streams, _seed) ->
      (* replaying every scenario twice must not change the canonical
         vector sets: the union is a set union, not a multiset sum *)
      let once =
        Coverage.Collector.merge (List.map collector_of_events streams)
      in
      let twice =
        Coverage.Collector.merge
          (List.map collector_of_events (streams @ streams))
      in
      Coverage.Mcdc.canonical once.Coverage.Collector.mcdc
      = Coverage.Mcdc.canonical twice.Coverage.Collector.mcdc)

(* Deterministic QCheck driver state: the suite must not depend on a
   wall-clock seed (concurrency policy: seeded, reproducible). *)
let merge_prop_rand = Random.State.make [| 0x26262 |]

let () =
  Alcotest.run "coverage"
    [
      ( "memory",
        [
          Alcotest.test_case "alloc/load/store" `Quick test_memory_alloc_load_store;
          Alcotest.test_case "out of bounds" `Quick test_memory_out_of_bounds;
          Alcotest.test_case "double free" `Quick test_memory_double_free;
          Alcotest.test_case "copy/fill" `Quick test_memory_copy_fill;
          Alcotest.test_case "truthiness" `Quick test_value_truthiness;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arithmetic;
          Alcotest.test_case "float arithmetic" `Quick test_interp_float_arith;
          Alcotest.test_case "octal literals" `Quick test_interp_octal_literals;
          Alcotest.test_case "division by zero" `Quick test_interp_division_by_zero;
          Alcotest.test_case "compound assign" `Quick test_interp_compound_assign;
          Alcotest.test_case "inc/dec" `Quick test_interp_incdec;
          Alcotest.test_case "pointers and arrays" `Quick test_interp_pointers_and_arrays;
          Alcotest.test_case "struct members" `Quick test_interp_struct_members;
          Alcotest.test_case "struct by value" `Quick test_interp_struct_by_value;
          Alcotest.test_case "struct assignment copies" `Quick
            test_interp_struct_assignment_copies;
          Alcotest.test_case "reference params" `Quick test_interp_reference_params;
          Alcotest.test_case "globals" `Quick test_interp_globals;
          Alcotest.test_case "enums" `Quick test_interp_enums;
          Alcotest.test_case "switch fallthrough" `Quick test_interp_switch_fallthrough;
          Alcotest.test_case "switch default" `Quick test_interp_switch_default;
          Alcotest.test_case "goto forward" `Quick test_interp_goto_forward;
          Alcotest.test_case "loops" `Quick test_interp_loops;
          Alcotest.test_case "short-circuit purity" `Quick
            test_interp_short_circuit_no_side_effect;
          Alcotest.test_case "ternary" `Quick test_interp_ternary;
          Alcotest.test_case "recursion" `Quick test_interp_recursion;
          Alcotest.test_case "printf output" `Quick test_interp_printf_output;
          Alcotest.test_case "math builtins" `Quick test_interp_math_builtins;
          Alcotest.test_case "memcpy builtin" `Quick test_interp_memcpy_builtin;
          Alcotest.test_case "math/string builtins" `Quick test_interp_builtin_values;
          Alcotest.test_case "rand deterministic" `Quick test_interp_rand_deterministic;
          Alcotest.test_case "kernel launch grid" `Quick test_interp_kernel_launch_grid;
          Alcotest.test_case "cuda memcpy roundtrip" `Quick
            test_interp_cuda_memcpy_roundtrip;
          Alcotest.test_case "step limit" `Quick test_interp_step_limit;
          Alcotest.test_case "exceptions" `Quick test_interp_exceptions;
          Alcotest.test_case "uncaught throw" `Quick test_interp_uncaught_throw;
          Alcotest.test_case "null deref" `Quick test_interp_null_deref;
          Alcotest.test_case "multi-TU program" `Quick test_interp_multi_tu_program;
          Alcotest.test_case "compile rejects shared id tag" `Quick
            test_compile_rejects_shared_id_tag;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "counts" `Quick test_instrument_counts;
          Alcotest.test_case "ternary decision" `Quick test_instrument_ternary_is_decision;
          Alcotest.test_case "negation transparent" `Quick test_instrument_not_transparent;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "full coverage" `Quick test_coverage_full;
          Alcotest.test_case "half branch" `Quick test_coverage_half_branch;
          Alcotest.test_case "excluded functions" `Quick test_coverage_excluded_functions;
          Alcotest.test_case "switch clauses" `Quick test_coverage_switch_clauses;
        ] );
      ( "mcdc",
        [
          Alcotest.test_case "single condition" `Quick test_mcdc_single_condition_needs_both;
          Alcotest.test_case "and pair" `Quick test_mcdc_and_pair;
          Alcotest.test_case "and insufficient" `Quick test_mcdc_and_insufficient;
          Alcotest.test_case "or with masking" `Quick test_mcdc_or_masking;
          Alcotest.test_case "suggest vector" `Quick test_mcdc_suggest_vector;
          QCheck_alcotest.to_alcotest prop_mcdc_never_exceeds_branch_opportunities;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_interpreter_matches_reference ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest ~rand:merge_prop_rand
            prop_merge_partition_invariant;
          QCheck_alcotest.to_alcotest ~rand:merge_prop_rand
            prop_merge_empty_identity;
          QCheck_alcotest.to_alcotest ~rand:merge_prop_rand
            prop_mcdc_union_deduplicates;
        ] );
      ( "testgen",
        [
          Alcotest.test_case "interesting values" `Quick test_testgen_interesting_values;
          Alcotest.test_case "comparison boundaries" `Quick
            test_testgen_comparison_boundaries;
          Alcotest.test_case "scalar filter" `Quick test_testgen_scalar_filter;
          Alcotest.test_case "closes yolo gaps" `Quick test_testgen_closes_yolo_gaps;
        ] );
    ]
