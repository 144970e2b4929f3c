(* Differential oracle harness for the bytecode coverage engine.

   The tree-walking evaluator of test/oracle is the oracle: every
   behaviour the bytecode engine exhibits — entry results, printed
   output, the full collector state (statement hits, branch outcomes,
   MC/DC condition vectors, switch clauses), provenance finding ids —
   must be byte-identical to the tree-walker on the same shared parse.
   The one permitted difference is [env.steps]: the bytecode engine must
   execute the corpus scenario set in strictly *fewer* ticks (each
   dispatched instruction ticks once, versus once per visited AST
   node).

   Four layers of evidence:

   - directed micro-programs covering every language corner (logical
     operators in value position, switch fallthrough, goto, try/throw,
     struct copies, kernels, error paths, global initializers) run on
     both engines;
   - QCheck: random structured programs (globals with initializer
     expressions, assignments, compound ops, nested ifs with multi-leaf
     decisions, bounded loops with break/continue, division, printf)
     agree on result, output and collector fingerprint; every compiled
     function and the init sequence pass [Bytecode.validate]
     (jump-target bounds + consistent stack depth);
   - the embedded sources the audit runs (YOLO, the stencils, the mini
     pipeline) through the micro differential, and [Cudasim.Runner.run]
     against a tree-walking oracle on per-function coverage, output,
     exit value, census and coverage-gap finding ids;
   - the full corpus scenario set (real scenarios + fault injection +
     testgen probes) replayed under the bytecode engine at the ambient
     jobs value and at jobs=2 must reproduce the tree oracle's merged
     fingerprint, per-file percentages, MC/DC pair counts, per-scenario
     results and outputs, and provenance finding ids — in fewer ticks.
     Under `make check-par` (ADCHECK_JOBS=1/2/8) this pins the
     equivalence across the whole jobs matrix. *)

let parse src = Cfront.Parser.parse_file ~file:"bc.cu" src

let restore_jobs = Util.Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* Micro differential: one source, both engines, full observation      *)
(* ------------------------------------------------------------------ *)

type micro = {
  m_results : string;
  m_output : string;
  m_fingerprint : string;
  m_steps : int;
}

type engine = Tree | Bytecode

(* Both engines observe the SAME parse (statement/decision ids are
   assigned at parse time), each through a fresh env + collector. *)
let run_micro ~engine tus ~entries =
  let col = Coverage.Collector.create () in
  let hooks = Coverage.Collector.hooks col in
  let results, env =
    match engine with
    | Tree ->
      let o = Oracle.Tree.create ~hooks () in
      (Oracle.Tree.run_entries o tus ~entries, Oracle.Tree.env o)
    | Bytecode ->
      let env = Coverage.Runtime.create ~hooks () in
      (Coverage.Exec.run_entries env (Coverage.Compile.compile tus) ~entries, env)
  in
  {
    m_results =
      String.concat "; "
        (List.map
           (fun (entry, r) ->
             entry ^ " = "
             ^
             match r with
             | Ok v -> "ok " ^ Coverage.Value.to_string v
             | Error e -> "error " ^ e)
           results);
    m_output = Coverage.Runtime.output env;
    m_fingerprint = Coverage.Collector.fingerprint col;
    m_steps = env.Coverage.Runtime.steps;
  }

let check_micro_tus name tus entries =
  let tree = run_micro ~engine:Tree tus ~entries in
  let bc = run_micro ~engine:Bytecode tus ~entries in
  Alcotest.(check string) (name ^ ": results") tree.m_results bc.m_results;
  Alcotest.(check string) (name ^ ": output") tree.m_output bc.m_output;
  Alcotest.(check string)
    (name ^ ": collector fingerprint") tree.m_fingerprint bc.m_fingerprint;
  Alcotest.(check bool)
    (name ^ ": both engines did work") true
    (tree.m_steps > 0 && bc.m_steps > 0);
  bc

let check_micro name src entries =
  let tu = parse src in
  Alcotest.(check (list string))
    (name ^ " parses clean") [] tu.Cfront.Ast.diags;
  check_micro_tus name [ tu ] entries

(* Each micro program targets specific instruction forms; together they
   touch every opcode family the compiler can emit. *)
let micro_programs =
  [
    ( "arith-ternary-unops",
      "int main() { int x = 3; int y = x > 1 ? x * 7 : -x; \
       int z = (- 4) + +x - !y; return y + z * (x % 2); }",
      [ "main" ] );
    ( "bare-logical-value",
      "int F(int a, int b) { int x; x = a && b; int y = a || !b; \
       int z = !(a && !b) || (b && a); return x * 100 + y * 10 + z; }\n\
       int main() { return F(1, 0) + F(0, 3) * 2 + F(2, 2) * 4 + F(0, 0) * 8; }",
      [ "main" ] );
    ( "multi-leaf-decisions",
      "int main() { int a = 1; int b = 0; int c = 2; int r = 0; \
       if (a > 0 && (b > 0 || c > 1)) { r = 1; } \
       if (!(a > 0) || b == 0 && c == 2) { r += 2; } \
       while (a < 3 && c > 0) { a++; c--; r += 10; } return r; }",
      [ "main" ] );
    ( "compound-assign-incdec",
      "int main() { int x = 10; x += 3; x -= 1; x *= 2; x /= 3; x %= 5; \
       int y = x++; int z = ++x; int w = x--; int v = --x; \
       return x * 1000 + y * 100 + z * 10 + w + v; }",
      [ "main" ] );
    ( "loops-break-continue",
      "int main() { int s = 0; for (int i = 0; i < 6; ++i) { \
       if (i == 2) { continue; } if (i == 5) { break; } \
       for (int j = 0; j < i; ++j) { if (j == 3) { break; } s += j; } s += i * 10; } \
       int k = 4; while (k > 0) { s += k; k--; } do { s += 7; } while (s < 0); return s; }",
      [ "main" ] );
    ( "switch-fallthrough-default",
      "int Pick(int a) { int r = 0; switch (a) { case 0: r += 1; case 1: r += 2; \
       break; case 2: r += 4; default: r += 8; } return r; }\n\
       int main() { return Pick(0) + Pick(1) * 10 + Pick(2) * 100 + Pick(9) * 1000; }",
      [ "main" ] );
    ( "goto-forward-backward",
      "int main() { int r = 0; int n = 0; goto mid; top: n++; r += 100; \
       mid: r += 1; if (n < 2) { goto top; } return r + n; }",
      [ "main" ] );
    ( "recursion-and-globals",
      "int g_calls = 0;\n\
       int Fact(int n) { g_calls++; if (n <= 1) { return 1; } return n * Fact(n - 1); }\n\
       int main() { return Fact(5) + g_calls; }",
      [ "main" ] );
    ( "arrays-pointers-sizeof",
      "int main() { int buf[4]; for (int i = 0; i < 4; ++i) { buf[i] = i * i; } \
       int* p = buf; int s = p[0] + *(p + 1) + buf[2] + p[3]; \
       int* q = &buf[1]; *q = 50; \
       return s + buf[1] + (int)sizeof(int) + (int)sizeof(buf[0]); }",
      [ "main" ] );
    ( "structs-members-copies",
      "struct P { int x; int y; };\n\
       void Bump(P p) { p.x = 99; }\n\
       int Get(P& p) { return p.x + p.y; }\n\
       int main() { P a; a.x = 3; a.y = 4; P b; b = a; a.x = 9; \
       Bump(b); P* q = &b; q->y = 11; return Get(b) * 100 + a.x + a.y; }",
      [ "main" ] );
    ( "enums-and-casts",
      "enum Mode { A, B = 5, C };\n\
       int main() { float f = 2.75; int i = (int)f; Mode m = C; \
       return A + B + m + i + (int)(f * 2.0); }",
      [ "main" ] );
    ( "builtins-printf-math",
      "int main() { printf(\"v=%d s=%s f=%f\\n\", 42, \"ok\", 1.5); \
       float a = sqrt(16.0); float b = fmax(a, 3.0); \
       int* m = (int*)malloc(2 * sizeof(int)); m[0] = 2; m[1] = 3; \
       int r = m[0] + m[1] + (int)a + (int)b; free(m); return r; }",
      [ "main" ] );
    ( "try-throw-catch",
      "int main() { int r = 0; try { r = 1; try { throw 7; } catch (int e) { \
       r += e; throw 2; } } catch (int f) { r += f * 10; } return r; }",
      [ "main" ] );
    ( "heap-new-delete",
      "int main() { int* p = new int; *p = 5; int r = *p; delete p; return r; }",
      [ "main" ] );
    ( "kernel-launch",
      "__global__ void Inc(int* p, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; \
       if (i < n) { p[i] = i * 2; } }\n\
       int main() { int* d; cudaMalloc((void**)&d, 8 * sizeof(int)); \
       Inc<<<2, 4>>>(d, 8); int s = 0; for (int i = 0; i < 8; ++i) { s += d[i]; } \
       cudaFree(d); return s; }",
      [ "main" ] );
    ( "multi-entry-shared-state",
      "int g_acc = 0;\n\
       int seed() { g_acc = 3; return g_acc; }\n\
       int bump() { g_acc = g_acc * 2 + 1; return g_acc; }",
      [ "seed"; "bump"; "bump" ] );
  ]

(* Error paths: both engines must produce the identical Error string
   (location prefix included). *)
let micro_error_programs =
  [
    ( "division-by-zero",
      "int main() { int a = 4; int b = 0; return a / b; }", [ "main" ] );
    ( "null-deref",
      "int main() { int* p = nullptr; return *p; }", [ "main" ] );
    ( "uncaught-throw",
      "int main() { throw 5; }", [ "main" ] );
    ( "unbound-identifier",
      "int main() { return nosuch; }", [ "main" ] );
    ( "index-of-non-pointer",
      "int main() { int a = 3; return a[1]; }", [ "main" ] );
  ]

let test_micro_programs () =
  List.iter (fun (name, src, entries) -> ignore (check_micro name src entries))
    micro_programs

let test_micro_error_programs () =
  List.iter
    (fun (name, src, entries) ->
      ignore (check_micro name src entries);
      (* and the tree run really did error, so the equality is not vacuous *)
      let tu = parse src in
      let t = run_micro ~engine:Tree [ tu ] ~entries in
      Alcotest.(check bool)
        (name ^ " errors") true
        (Util.Strutil.contains_sub ~sub:"error " t.m_results))
    micro_error_programs

(* A jump with no target: the signal ends the run as an [Error] naming
   the construct on both engines, not as an exception out of the run. *)
let stray_jump_programs =
  [
    ("stray-goto", "int main() { goto nowhere; return 0; }",
     "main = error goto nowhere: no such label in the function");
    ("stray-break", "int main() { break; return 0; }",
     "main = error break outside a loop or switch");
    ("stray-continue", "int main() { continue; return 0; }",
     "main = error continue outside a loop");
  ]

let test_stray_jumps () =
  List.iter
    (fun (name, src, expected) ->
      let tu = parse src in
      let tree = run_micro ~engine:Tree [ tu ] ~entries:[ "main" ] in
      let bc = run_micro ~engine:Bytecode [ tu ] ~entries:[ "main" ] in
      Alcotest.(check string) (name ^ ": tree") expected tree.m_results;
      Alcotest.(check string) (name ^ ": bytecode") expected bc.m_results)
    stray_jump_programs

(* One such scenario in a [run_all] does not stop the others. *)
let test_stray_jump_in_run_all () =
  let scenario name src =
    { Coverage.Scenario.sc_name = name; sc_tus = [ parse src ]; sc_entries = [ "main" ] }
  in
  let outcomes =
    Coverage.Scenario.run_all
      (scenario "before" "int main() { return 1; }"
       :: List.map (fun (name, src, _) -> scenario name src) stray_jump_programs
       @ [ scenario "after" "int main() { return 2; }" ])
  in
  let result o =
    match o.Coverage.Scenario.o_results with
    | [ (_, Ok v) ] -> "ok " ^ Coverage.Value.to_string v
    | [ (_, Error e) ] -> "error " ^ e
    | _ -> "?"
  in
  Alcotest.(check (list string)) "every scenario ran"
    ([ "ok 1" ]
     @ List.map
         (fun (_, _, expected) -> String.sub expected 7 (String.length expected - 7))
         stray_jump_programs
     @ [ "ok 2" ])
    (List.map result outcomes)

(* Global initializers run once at load, before any entry, in load
   order and through each global's qualified name: compiled to one init
   sequence by the bytecode engine, evaluated in place by the oracle.
   Each case also pins the result both engines must reach; [main] has no
   decision of its own, so any decision the collector holds was fired by
   an initializer. *)
let init_programs =
  [
    ( "namespaced-globals",
      "namespace a { int x = 1; }\nnamespace b { int x = 2; }\n\
       int main() { return a::x * 10 + b::x; }",
      "main = ok 12",
      false );
    ( "initializer-reads-earlier-global",
      "int g_base = 5;\nint g_twice = g_base * 2 + 1;\n\
       int main() { return g_twice; }",
      "main = ok 11",
      false );
    ( "initializer-calls-function",
      "int Seed() { return 7; }\nint g_seed = Seed() + 1;\n\
       int main() { return g_seed; }",
      "main = ok 8",
      false );
    ( "ternary-initializer",
      "int g_a = 3;\nint g_pick = g_a > 2 ? 10 : 20;\n\
       int main() { return g_pick; }",
      "main = ok 10",
      true );
    ( "logical-and-initializer",
      "int g_a = 3;\nint g_b = 0;\nint g_both = g_a > 2 && g_b == 0;\n\
       int g_gate = (g_a > 2 && g_b == 1) ? 4 : 6;\n\
       int main() { return g_both * 10 + g_gate; }",
      "main = ok 16",
      true );
  ]

let test_global_initializers () =
  List.iter
    (fun (name, src, expected, fires_decision) ->
      let bc = check_micro name src [ "main" ] in
      Alcotest.(check string) (name ^ ": value") expected bc.m_results;
      Alcotest.(check bool)
        (name ^ ": initializer decision hooks") fires_decision
        (not (Util.Strutil.contains_sub ~sub:"decision:\n" bc.m_fingerprint)))
    init_programs

(* An initializer that fails at load fails every entry with the same
   message, location included, on both engines. *)
let test_global_initializer_error () =
  let src =
    "int g_zero = 0;\nint g_bad = 10 / g_zero;\n\
     int main() { return g_bad; }\nint other() { return 1; }"
  in
  let bc = check_micro "initializer-error" src [ "main"; "other" ] in
  Alcotest.(check string) "initializer-error: every entry fails"
    "main = error bc.cu:2:16: integer division by zero; \
     other = error bc.cu:2:16: integer division by zero"
    bc.m_results

(* ------------------------------------------------------------------ *)
(* QCheck: random structured programs                                  *)
(* ------------------------------------------------------------------ *)

(* A little statement language over four ints x0..x3: a prefix of them
   are globals whose initializers are generated expressions over the
   globals (a later global reads its default 0), the rest are locals of
   [main] initialized to literals.  Loops are bounded by literal trip
   counts and loop variables are unique per nesting depth, so every
   generated program terminates and never shadows a name. *)
type gexpr =
  | Glit of int
  | Gvar of int  (* x0..x3 *)
  | Gbin of string * gexpr * gexpr  (* + - * / % *)
  | Gneg of gexpr
  | Gite of gcond * gexpr * gexpr

and gcond =
  | Gcmp of string * gexpr * gexpr  (* < <= == != *)
  | Gand of gcond * gcond
  | Gor of gcond * gcond
  | Gnot of gcond

type gstmt =
  | Gset of int * gexpr  (* xN = e; *)
  | Gupd of int * string * gexpr  (* xN op= e; *)
  | Gincdec of int * bool  (* xN++; / xN--; *)
  | Gif of gcond * gstmt list * gstmt list
  | Gfor of int * gstmt list * gcond option
      (* for (int lD = 0; lD < trip; ++lD) { body; if (c) break; } *)
  | Gprint of int  (* printf("%d\n", xN); *)

type gdecl =
  | Gglobal of gexpr  (* int xN = e; at file scope *)
  | Glocal of int  (* int xN = lit; in main *)

let rec c_of_gexpr = function
  | Glit n -> string_of_int n
  | Gvar i -> Printf.sprintf "x%d" i
  | Gbin (op, a, b) ->
    (* space after "(" so a leading unary minus can't lex as "--" *)
    Printf.sprintf "( %s %s %s)" (c_of_gexpr a) op (c_of_gexpr b)
  | Gneg a -> Printf.sprintf "(- %s)" (c_of_gexpr a)
  | Gite (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (c_of_gcond c) (c_of_gexpr a) (c_of_gexpr b)

and c_of_gcond = function
  | Gcmp (op, a, b) ->
    Printf.sprintf "( %s %s %s)" (c_of_gexpr a) op (c_of_gexpr b)
  | Gand (a, b) -> Printf.sprintf "(%s && %s)" (c_of_gcond a) (c_of_gcond b)
  | Gor (a, b) -> Printf.sprintf "(%s || %s)" (c_of_gcond a) (c_of_gcond b)
  | Gnot a -> Printf.sprintf "(!%s)" (c_of_gcond a)

let rec c_of_gstmt ~depth ~indent s =
  let pad = String.make indent ' ' in
  match s with
  | Gset (i, e) -> Printf.sprintf "%sx%d = %s;" pad i (c_of_gexpr e)
  | Gupd (i, op, e) -> Printf.sprintf "%sx%d %s= %s;" pad i op (c_of_gexpr e)
  | Gincdec (i, up) -> Printf.sprintf "%sx%d%s;" pad i (if up then "++" else "--")
  | Gif (c, t, f) ->
    let body ss =
      String.concat "\n" (List.map (c_of_gstmt ~depth ~indent:(indent + 2)) ss)
    in
    if f = [] then
      Printf.sprintf "%sif (%s) {\n%s\n%s}" pad (c_of_gcond c) (body t) pad
    else
      Printf.sprintf "%sif (%s) {\n%s\n%s} else {\n%s\n%s}" pad (c_of_gcond c)
        (body t) pad (body f) pad
  | Gfor (trip, body, brk) ->
    let v = Printf.sprintf "l%d" depth in
    let inner =
      String.concat "\n"
        (List.map (c_of_gstmt ~depth:(depth + 1) ~indent:(indent + 2)) body)
    in
    let escape =
      match brk with
      | None -> ""
      | Some c ->
        Printf.sprintf "\n%s  if (%s) { break; } else { continue; }"
          pad (c_of_gcond c)
    in
    Printf.sprintf "%sfor (int %s = 0; %s < %d; ++%s) {\n%s%s\n%s}" pad v v
      trip v inner escape pad
  | Gprint i -> Printf.sprintf "%sprintf(\"%%d\\n\", x%d);" pad i

let c_of_gprog (decls, stmts) =
  let globals =
    String.concat ""
      (List.mapi
         (fun i d ->
           match d with
           | Gglobal e -> Printf.sprintf "int x%d = %s;\n" i (c_of_gexpr e)
           | Glocal _ -> "")
         decls)
  in
  let locals =
    String.concat " "
      (List.concat
         (List.mapi
            (fun i d ->
              match d with
              | Glocal v -> [ Printf.sprintf "int x%d = %d;" i v ]
              | Gglobal _ -> [])
            decls))
  in
  let body = String.concat "\n" (List.map (c_of_gstmt ~depth:0 ~indent:2) stmts) in
  Printf.sprintf
    "%sint main() {\n  %s\n%s\n  printf(\"%%d %%d %%d %%d\\n\", x0, x1, x2, x3);\n\
    \  return x0 + x1 * 3 + x2 * 5 + x3 * 7;\n}\n"
    globals locals body

let gprog_gen =
  let open QCheck.Gen in
  (* expressions and conditions over the variables [var] draws from *)
  let exprs_over var =
    let rec expr n =
      if n <= 0 then
        oneof [ map (fun i -> Glit i) (int_range (-20) 20); map (fun i -> Gvar i) var ]
      else
        frequency
          [
            (2, map (fun i -> Glit i) (int_range (-20) 20));
            (3, map (fun i -> Gvar i) var);
            ( 4,
              map3
                (fun op a b -> Gbin (op, a, b))
                (oneofl [ "+"; "-"; "*"; "/"; "%" ])
                (expr (n / 2)) (expr (n / 2)) );
            (1, map (fun a -> Gneg a) (expr (n - 1)));
            ( 2,
              map3 (fun c a b -> Gite (c, a, b)) (cond (n / 2)) (expr (n / 2))
                (expr (n / 2)) );
          ]
    and cond n =
      if n <= 0 then
        map3 (fun op a b -> Gcmp (op, a, b))
          (oneofl [ "<"; "<="; "=="; "!=" ]) (expr 0) (expr 0)
      else
        frequency
          [
            ( 3,
              map3 (fun op a b -> Gcmp (op, a, b))
                (oneofl [ "<"; "<="; "=="; "!=" ])
                (expr (n / 2)) (expr (n / 2)) );
            (2, map2 (fun a b -> Gand (a, b)) (cond (n / 2)) (cond (n / 2)));
            (2, map2 (fun a b -> Gor (a, b)) (cond (n / 2)) (cond (n / 2)));
            (1, map (fun a -> Gnot a) (cond (n - 1)));
          ]
    in
    (expr, cond)
  in
  let var = int_range 0 3 in
  let expr, cond = exprs_over var in
  let rec stmt n =
    if n <= 0 then map2 (fun i e -> Gset (i, e)) var (expr 2)
    else
      frequency
        [
          (3, map2 (fun i e -> Gset (i, e)) var (expr 3));
          ( 2,
            map3 (fun i op e -> Gupd (i, op, e)) var
              (oneofl [ "+"; "-"; "*" ]) (expr 2) );
          (1, map2 (fun i up -> Gincdec (i, up)) var bool);
          (1, map (fun i -> Gprint i) var);
          ( 2,
            map3 (fun c t f -> Gif (c, t, f)) (cond 3)
              (stmts (n / 2)) (oneof [ return []; stmts (n / 2) ]) );
          ( 2,
            map3 (fun trip body brk -> Gfor (trip, body, brk))
              (int_range 1 4) (stmts (n / 2))
              (oneof [ return None; map (fun c -> Some c) (cond 2) ]) );
        ]
  and stmts n = list_size (int_range 1 (max 1 (min 4 n))) (stmt (n / 2)) in
  (* x0..x(k-1) are globals, initialized over the globals only *)
  let decls =
    frequency [ (2, return 0); (3, int_range 1 4) ] >>= fun k ->
    flatten_l
      (List.init 4 (fun i ->
           if i < k then map (fun e -> Gglobal e) (fst (exprs_over (int_range 0 (k - 1))) 2)
           else map (fun v -> Glocal v) (int_range (-9) 9)))
  in
  sized (fun n -> pair decls (stmts (min (max n 2) 10)))

let gprog_arb = QCheck.make ~print:c_of_gprog gprog_gen

(* Random programs: the two engines agree on result, printed output and
   the full collector fingerprint (statement hits, branch outcomes,
   MC/DC vectors).  Steps are deliberately NOT compared per program —
   e.g. a bare `&&` in value position can legitimately cost the
   bytecode engine one more tick; the fewer-ticks claim is made (and
   enforced) over the corpus scenario set. *)
let prop_engines_agree =
  QCheck.Test.make ~name:"random programs: bytecode == tree oracle" ~count:150
    gprog_arb
    (fun prog ->
      let tu = parse (c_of_gprog prog) in
      tu.Cfront.Ast.diags = []
      &&
      let t = run_micro ~engine:Tree [ tu ] ~entries:[ "main" ] in
      let b = run_micro ~engine:Bytecode [ tu ] ~entries:[ "main" ] in
      t.m_results = b.m_results && t.m_output = b.m_output
      && t.m_fingerprint = b.m_fingerprint)

(* Every compiled function of every random program is well-formed:
   jump targets in range, one consistent stack depth per pc, depth 0 at
   fall-off — and the recorded max stack matches the validator's. *)
let prop_compiled_well_formed =
  QCheck.Test.make ~name:"random programs: compiled code validates" ~count:150
    gprog_arb
    (fun prog ->
      let tu = parse (c_of_gprog prog) in
      tu.Cfront.Ast.diags = []
      &&
      let p = Coverage.Compile.compile [ tu ] in
      Array.for_all
        (fun (f : Coverage.Bytecode.cfn) ->
          Coverage.Bytecode.validate f = f.Coverage.Bytecode.cf_max_stack)
        p.Coverage.Bytecode.p_fns
      && Coverage.Bytecode.validate_code p.Coverage.Bytecode.p_init.Coverage.Bytecode.i_code
         = p.Coverage.Bytecode.p_init.Coverage.Bytecode.i_max_stack)

(* Random programs: the census and interproc's direct facts equal the
   walks they replaced (test/census_reference.ml), on the same
   generator's globals, locals and control flow, at a fixed QCheck
   seed. *)
let prop_census_equals_former_walks seed =
  QCheck.Test.make
    ~name:(Printf.sprintf "random programs: census and direct facts == former walks, seed %d" seed)
    ~count:150 gprog_arb
    (fun prog ->
      let tu = parse (c_of_gprog prog) in
      tu.Cfront.Ast.diags = []
      && Census_reference.unit_mismatches tu = []
      && Census_reference.direct_mismatches
           ~globals:(Census_reference.globals_of_tus [ tu ])
           (Cfront.Ast.functions_of_tu tu)
         = [])

(* ------------------------------------------------------------------ *)
(* The audited coverage phases                                          *)
(* ------------------------------------------------------------------ *)

(* The embedded programs production runs through [Cudasim.Runner]: YOLO
   (the audit's Figure 5), the cuda4cpu stencils (Figure 6) and the mini
   AD pipeline.  One shared parse each, seen by both engines. *)
let audited_sources =
  List.map
    (fun (name, parse_all, measured_files, entry) ->
      (name, lazy (parse_all ()), List.map fst measured_files, entry))
    [
      ("yolo", Corpus.Yolo_src.parse_all, Corpus.Yolo_src.measured_files,
       Corpus.Yolo_src.entry);
      ("stencil", Corpus.Stencil_src.parse_all, Corpus.Stencil_src.measured_files,
       Corpus.Stencil_src.entry);
      ("pipeline", Pipeline_src.parse_all,
       Pipeline_src.measured_files, Pipeline_src.entry);
    ]

let test_audited_sources_micro () =
  List.iter
    (fun (name, tus, _, entry) -> ignore (check_micro_tus name (Lazy.force tus) [ entry ]))
    audited_sources

(* Everything a [Cudasim.Runner.result] reports, plus the provenance
   findings its scoring records, rendered for comparison. *)
type runner_view = {
  r_exit : string;
  r_output : string;
  r_files : string list;  (** one line per file, then per called function *)
  r_census : Cudasim.Census.t;
  r_findings : string list;
}

let view_of ~exit_value ~output ~files ~census findings =
  {
    r_exit =
      (match exit_value with
       | Ok v -> "ok " ^ Coverage.Value.to_string v
       | Error e -> "error " ^ e);
    r_output = output;
    r_files =
      List.concat_map
        (fun (f : Coverage.Collector.file_coverage) ->
          Printf.sprintf "%s stmt=%.6f branch=%.6f mcdc=%.6f fn=%.6f excluded=%d"
            f.Coverage.Collector.file f.Coverage.Collector.stmt_pct
            f.Coverage.Collector.branch_pct f.Coverage.Collector.mcdc_pct
            f.Coverage.Collector.function_pct f.Coverage.Collector.excluded
          :: List.map
               (fun (fc : Coverage.Collector.func_coverage) ->
                 Printf.sprintf "  %s stmts=%d/%d branches=%d/%d conds=%d/%d first=%s"
                   fc.Coverage.Collector.fp.Coverage.Instrument.fp_name
                   fc.Coverage.Collector.stmts_hit fc.Coverage.Collector.stmts_total
                   fc.Coverage.Collector.branches_hit
                   fc.Coverage.Collector.branches_total
                   fc.Coverage.Collector.conditions_hit
                   fc.Coverage.Collector.conditions_total
                   (Option.value ~default:"-" fc.Coverage.Collector.first_covered_by))
               f.Coverage.Collector.functions)
        files;
    r_census = census;
    r_findings = List.map (fun f -> f.Provenance.f_id) findings;
  }

(* The tree-walking oracle for [Cudasim.Runner.run]: same origin, same
   collector, same scoring, executed by [Oracle.Tree.run]. *)
let tree_runner ~entry ~measured tus =
  let (exit_value, output, files), findings =
    Provenance.collect (fun () ->
        let collector = Coverage.Collector.create ~origin:("run:" ^ entry) () in
        let o = Oracle.Tree.create ~hooks:(Coverage.Collector.hooks collector) () in
        let exit_value = Oracle.Tree.run o tus ~entry ~args:[] in
        let files =
          List.filter_map
            (fun (tu : Cfront.Ast.tu) ->
              if List.mem tu.Cfront.Ast.tu_file measured then
                Some
                  (Coverage.Collector.score_file collector
                     ~file:tu.Cfront.Ast.tu_file (Coverage.Instrument.of_tu tu))
              else None)
            tus
        in
        (exit_value, Coverage.Runtime.output (Oracle.Tree.env o), files))
  in
  let census =
    List.fold_left
      (fun acc tu -> Cudasim.Census.add acc (Cudasim.Census.of_tu tu))
      Cudasim.Census.zero tus
  in
  view_of ~exit_value ~output ~files ~census findings

let test_runner_matches_tree () =
  List.iter
    (fun (name, tus, measured, entry) ->
      let tus = Lazy.force tus in
      let oracle = tree_runner ~entry ~measured tus in
      let r, findings =
        Provenance.collect (fun () -> Cudasim.Runner.run ~entry ~measured tus)
      in
      let bc =
        view_of ~exit_value:r.Cudasim.Runner.exit_value
          ~output:r.Cudasim.Runner.output ~files:r.Cudasim.Runner.files
          ~census:r.Cudasim.Runner.census findings
      in
      Alcotest.(check string) (name ^ ": exit value") oracle.r_exit bc.r_exit;
      Alcotest.(check bool)
        (name ^ ": exit value is ok") true
        (String.starts_with ~prefix:"ok " bc.r_exit);
      Alcotest.(check string) (name ^ ": output") oracle.r_output bc.r_output;
      Alcotest.(check (list string))
        (name ^ ": per-file and per-function coverage") oracle.r_files bc.r_files;
      Alcotest.(check bool)
        (name ^ ": census") true (oracle.r_census = bc.r_census);
      Alcotest.(check (list string))
        (name ^ ": coverage-gap finding ids") oracle.r_findings bc.r_findings;
      Alcotest.(check bool)
        (name ^ ": scored files and findings exist") true
        (bc.r_files <> [] && bc.r_findings <> []))
    audited_sources

(* ------------------------------------------------------------------ *)
(* Corpus-scale differential over the full scenario set                *)
(* ------------------------------------------------------------------ *)

(* Built ONCE at jobs=1 and shared by every engine/jobs combination, so
   the set is constructed (and its probes planned) a single time. *)
let coverage_set =
  lazy
    (Util.Pool.set_default_jobs 1;
     Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore_jobs)
       Corpus.Scenario_set.full)

type cov = {
  c_fingerprint : string;
  c_files : string list;
  c_results : (string * string) list;
  c_outputs : (string * string) list;
  c_findings : string list;  (** provenance finding ids, in record order *)
  c_steps : int;  (** sum of per-scenario [env.steps] *)
}

let run_coverage ~engine ~jobs =
  let set = Lazy.force coverage_set in
  Util.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  let (outcomes, files), findings =
    Provenance.collect (fun () ->
        let outcomes =
          (match engine with
           | Tree -> Oracle.Tree.run_scenarios
           | Bytecode -> Coverage.Scenario.run_all)
            set.Corpus.Scenario_set.scenarios
        in
        let merged = Coverage.Scenario.merged_collector outcomes in
        let files =
          Coverage.Scenario.score merged
            ~measured:set.Corpus.Scenario_set.measured
            set.Corpus.Scenario_set.tus
        in
        (outcomes, files))
  in
  {
    c_fingerprint =
      Coverage.Collector.fingerprint
        (Coverage.Scenario.merged_collector outcomes);
    c_files =
      List.map
        (fun (f : Coverage.Collector.file_coverage) ->
          let pairs_hit, pairs_total =
            List.fold_left
              (fun (h, t) (fc : Coverage.Collector.func_coverage) ->
                ( h + fc.Coverage.Collector.conditions_hit,
                  t + fc.Coverage.Collector.conditions_total ))
              (0, 0) f.Coverage.Collector.functions
          in
          Printf.sprintf "%s stmt=%.6f branch=%.6f mcdc=%.6f pairs=%d/%d"
            f.Coverage.Collector.file f.Coverage.Collector.stmt_pct
            f.Coverage.Collector.branch_pct f.Coverage.Collector.mcdc_pct
            pairs_hit pairs_total)
        files;
    c_results =
      List.concat_map
        (fun (o : Coverage.Scenario.outcome) ->
          List.map
            (fun (entry, r) ->
              ( o.Coverage.Scenario.o_name ^ "/" ^ entry,
                match r with
                | Ok v -> "ok " ^ Coverage.Value.to_string v
                | Error e -> "error " ^ e ))
            o.Coverage.Scenario.o_results)
        outcomes;
    c_outputs =
      List.map
        (fun (o : Coverage.Scenario.outcome) ->
          (o.Coverage.Scenario.o_name, o.Coverage.Scenario.o_output))
        outcomes;
    c_findings = List.map (fun f -> f.Provenance.f_id) findings;
    c_steps =
      List.fold_left
        (fun acc (o : Coverage.Scenario.outcome) ->
          acc + o.Coverage.Scenario.o_steps)
        0 outcomes;
  }

(* The tree oracle runs sequentially: jobs=1 is literally List.map. *)
let tree_oracle = lazy (run_coverage ~engine:Tree ~jobs:1)

let check_engine_equal ~name bc =
  let oracle = Lazy.force tree_oracle in
  Alcotest.(check string)
    (name ^ ": merged collector fingerprint")
    oracle.c_fingerprint bc.c_fingerprint;
  Alcotest.(check (list string))
    (name ^ ": per-file coverage lines") oracle.c_files bc.c_files;
  Alcotest.(check (list (pair string string)))
    (name ^ ": per-scenario results") oracle.c_results bc.c_results;
  Alcotest.(check (list (pair string string)))
    (name ^ ": per-scenario outputs") oracle.c_outputs bc.c_outputs;
  Alcotest.(check (list string))
    (name ^ ": provenance finding ids") oracle.c_findings bc.c_findings

let test_oracle_stable () =
  let a = Lazy.force tree_oracle in
  let b = run_coverage ~engine:Tree ~jobs:1 in
  Alcotest.(check string) "sequential fingerprints agree" a.c_fingerprint
    b.c_fingerprint;
  Alcotest.(check (list string)) "sequential file lines agree" a.c_files
    b.c_files;
  Alcotest.(check int) "sequential steps agree" a.c_steps b.c_steps;
  Alcotest.(check bool) "scenario set nonempty" true (a.c_results <> []);
  Alcotest.(check bool) "findings recorded" true (a.c_findings <> [])

(* At the ambient jobs value: under `make check-par` this runs the
   bytecode engine at ADCHECK_JOBS=1, 2 and 8 against the same oracle. *)
let test_bytecode_ambient_jobs () =
  let bc = run_coverage ~engine:Bytecode ~jobs:restore_jobs in
  check_engine_equal
    ~name:(Printf.sprintf "bytecode at jobs=%d" restore_jobs)
    bc

let test_bytecode_jobs2 () =
  check_engine_equal ~name:"bytecode at jobs=2"
    (run_coverage ~engine:Bytecode ~jobs:2)

(* The acceptance claim: the bytecode engine executes the whole
   scenario set in strictly fewer recorded ticks than the tree walker
   at jobs=1 (steps are jobs-invariant; both engines tick through the
   same [Runtime.tick]). *)
let test_bytecode_fewer_steps () =
  let tree = Lazy.force tree_oracle in
  let bc = run_coverage ~engine:Bytecode ~jobs:1 in
  Alcotest.(check bool)
    (Printf.sprintf "bytecode steps (%d) < tree steps (%d)" bc.c_steps
       tree.c_steps)
    true
    (bc.c_steps > 0 && bc.c_steps < tree.c_steps)

(* Every function the corpus compiles to is well-formed bytecode. *)
let test_corpus_validates () =
  let set = Lazy.force coverage_set in
  let distinct =
    List.fold_left
      (fun acc (sc : Coverage.Scenario.t) ->
        let tus = sc.Coverage.Scenario.sc_tus in
        if
          List.exists
            (fun other ->
              List.compare_lengths other tus = 0
              && List.for_all2 ( == ) other tus)
            acc
        then acc
        else tus :: acc)
      [] set.Corpus.Scenario_set.scenarios
  in
  let validated = ref 0 in
  List.iter
    (fun tus ->
      let p = Coverage.Compile.compile tus in
      Array.iter
        (fun (f : Coverage.Bytecode.cfn) ->
          let depth =
            try Coverage.Bytecode.validate f
            with Coverage.Bytecode.Invalid msg ->
              Alcotest.failf "%s: invalid bytecode: %s"
                f.Coverage.Bytecode.cf_qname msg
          in
          Alcotest.(check int)
            (f.Coverage.Bytecode.cf_qname ^ ": recorded max stack")
            depth f.Coverage.Bytecode.cf_max_stack;
          incr validated)
        p.Coverage.Bytecode.p_fns)
    distinct;
  Alcotest.(check bool) "corpus functions validated" true (!validated > 0)

let () =
  Alcotest.run "bytecode-diff"
    [
      ( "micro",
        [
          Alcotest.test_case "directed programs" `Quick test_micro_programs;
          Alcotest.test_case "error paths" `Quick test_micro_error_programs;
          Alcotest.test_case "stray goto, break and continue" `Quick test_stray_jumps;
          Alcotest.test_case "stray jump does not stop run_all" `Quick
            test_stray_jump_in_run_all;
          Alcotest.test_case "global initializers" `Quick test_global_initializers;
          Alcotest.test_case "global initializer error" `Quick
            test_global_initializer_error;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest prop_engines_agree;
          QCheck_alcotest.to_alcotest prop_compiled_well_formed;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |])
            (prop_census_equals_former_walks 7);
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2019 |])
            (prop_census_equals_former_walks 2019);
        ] );
      ( "audited",
        [
          Alcotest.test_case "embedded sources, both engines" `Quick
            test_audited_sources_micro;
          Alcotest.test_case "Runner matches the tree oracle" `Quick
            test_runner_matches_tree;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "tree oracle is stable" `Slow test_oracle_stable;
          Alcotest.test_case "bytecode at ambient jobs" `Slow
            test_bytecode_ambient_jobs;
          Alcotest.test_case "bytecode at jobs=2" `Slow test_bytecode_jobs2;
          Alcotest.test_case "bytecode uses fewer steps" `Slow
            test_bytecode_fewer_steps;
          Alcotest.test_case "corpus bytecode validates" `Slow
            test_corpus_validates;
        ] );
    ]
