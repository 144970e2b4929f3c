(* Tests for the hardened call graph (per-site resolution accounting) and
   the whole-program summary engine in lib/interproc: hand-written goldens
   for the corner cases, corpus-level invariants, and the sequential-vs-
   parallel differential (jobs=1 is the oracle; every other worker count
   must reproduce its summaries and IP-1 findings byte for byte). *)

module CG = Cfront.Callgraph
module IP = Interproc.Summary

let parse ~file src = Cfront.Parser.parse_file ~file src

let pf ?(modname = "m") ~path src =
  Cfront.Project.parsed_file
    { Cfront.Project.path; modname; header = false; content = src }
    (parse ~file:path src)

let graph_of_files pfs =
  CG.build
    (List.concat_map
       (fun (p : Cfront.Project.parsed_file) ->
         Cfront.Ast.functions_of_tu (Cfront.Project.tu p))
       pfs)

let graph_of src = graph_of_files [ pf ~path:"g.cc" src ]
let summary_of_files pfs = (Fixture.context_of_files pfs).Misra.Rule.interproc
let summary_of src = summary_of_files [ pf ~path:"s.cc" src ]

let outcome_name = function
  | CG.Resolved q -> "resolved:" ^ q
  | CG.Guessed (q, _) -> "guessed:" ^ q
  | CG.Ambiguous _ -> "ambiguous"
  | CG.Unresolved -> "unresolved"
  | CG.Indirect_call -> "indirect"

let site_outcomes g =
  List.map (fun (s : CG.call_site) -> outcome_name s.CG.cs_outcome) g.CG.sites

(* ------------------------------------------------------------------ *)
(* Call-graph corner cases                                              *)
(* ------------------------------------------------------------------ *)

let test_shadowed_scope_preference () =
  let g =
    graph_of
      "namespace m1 { int Helper() { return 1; } int Use() { return Helper(); } }\n\
       namespace m2 { int Helper() { return 2; } }"
  in
  Alcotest.(check (list string)) "scope-preferred edge" [ "m1::Helper" ]
    (CG.callees g "m1::Use");
  Alcotest.(check (list string)) "site resolved, not guessed"
    [ "resolved:m1::Helper" ] (site_outcomes g);
  Alcotest.(check int) "no guesses" 0 g.CG.resolution.CG.guessed

let test_shadowed_guessed_fallback () =
  (* the caller is outside both namespaces: no scope preference applies,
     the legacy first-defined fallback fires but is flagged as a guess *)
  let g =
    graph_of
      "namespace m1 { int Helper() { return 1; } }\n\
       namespace m2 { int Helper() { return 2; } }\n\
       int Use() { return Helper(); }"
  in
  Alcotest.(check (list string)) "edge to first-defined candidate"
    [ "m1::Helper" ] (CG.callees g "Use");
  Alcotest.(check (list string)) "flagged as guess" [ "guessed:m1::Helper" ]
    (site_outcomes g);
  Alcotest.(check int) "guessed counted" 1 g.CG.resolution.CG.guessed;
  Alcotest.(check int) "not counted resolved" 0 g.CG.resolution.CG.resolved

let test_kernel_launch_edge () =
  let g =
    graph_of
      "__global__ void K(int n) { int i = n; }\n\
       void F() { K<<<1, 1>>>(7); }"
  in
  Alcotest.(check (list string)) "launch edge" [ "K" ] (CG.callees g "F");
  Alcotest.(check int) "kernel launch counted" 1
    g.CG.resolution.CG.kernel_launches;
  Alcotest.(check int) "launch resolved" 1 g.CG.resolution.CG.resolved

let test_fnptr_taken () =
  let g =
    graph_of
      "void G() { }\n\
       void Use() { Register(&G); }"
  in
  Alcotest.(check (list string)) "address-taken function recorded" [ "G" ]
    g.CG.resolution.CG.fnptr_taken;
  (* Register has no definition: an unresolved site, no fabricated edge *)
  Alcotest.(check int) "callee unresolved" 1 g.CG.resolution.CG.unresolved;
  Alcotest.(check (list string)) "no edges out of Use" [] (CG.callees g "Use")

let test_fnptr_shadowed_by_local () =
  let g =
    graph_of
      "void G() { }\n\
       void Use(int G) { Register(&G); }"
  in
  Alcotest.(check (list string)) "parameter shadows the function" []
    g.CG.resolution.CG.fnptr_taken

let test_member_same_file_preferred () =
  let a =
    pf ~path:"a.cc"
      "namespace a1 { int Reset() { return 1; } }\n\
       int CallerA(int obj) { return obj.Reset(); }"
  in
  let b = pf ~path:"b.cc" "namespace b1 { int Reset() { return 2; } }" in
  let g = graph_of_files [ a; b ] in
  Alcotest.(check (list string)) "same-file candidate wins" [ "a1::Reset" ]
    (CG.callees g "CallerA");
  Alcotest.(check int) "no ambiguity" 0 g.CG.resolution.CG.ambiguous

let test_member_ambiguous_no_edge () =
  let a = pf ~path:"a.cc" "namespace a1 { int Reset() { return 1; } }" in
  let b = pf ~path:"b.cc" "namespace b1 { int Reset() { return 2; } }" in
  let c = pf ~path:"c.cc" "int CallerC(int obj) { return obj.Reset(); }" in
  let g = graph_of_files [ a; b; c ] in
  Alcotest.(check (list string)) "no fabricated edge" []
    (CG.callees g "CallerC");
  Alcotest.(check int) "ambiguity counted" 1 g.CG.resolution.CG.ambiguous;
  Alcotest.(check int) "not resolved" 0 g.CG.resolution.CG.resolved

let test_recursion_cycles () =
  let g =
    graph_of
      "int Odd(int n);\n\
       int Even(int n) { if (n == 0) { return 1; } return Odd(n - 1); }\n\
       int Odd(int n) { if (n == 0) { return 0; } return Even(n - 1); }\n\
       int Self(int n) { if (n <= 0) { return 0; } return Self(n - 1); }\n\
       int Plain() { return Self(3); }"
  in
  let cycles = CG.recursion_cycles g in
  Alcotest.(check int) "two cycles" 2 (List.length cycles);
  Alcotest.(check (list (list string))) "mutual SCC then self-loop"
    [ [ "Even"; "Odd" ]; [ "Self" ] ]
    (List.map (List.sort compare) cycles)

(* ------------------------------------------------------------------ *)
(* Summary engine                                                       *)
(* ------------------------------------------------------------------ *)

let find ip name =
  match IP.find_summary ip name with
  | Some s -> s
  | None -> Alcotest.failf "no summary for %s" name

let test_purity_and_global_propagation () =
  let ip =
    summary_of
      "int g_state = 0;\n\
       int Leaf() { g_state = 1; return 0; }\n\
       int Mid() { return Leaf(); }\n\
       int Pure(int a) { return a + 1; }"
  in
  let leaf = find ip "Leaf" and mid = find ip "Mid" and pure = find ip "Pure" in
  Alcotest.(check (list string)) "Leaf writes g_state" [ "g_state" ]
    (IP.SS.elements leaf.IP.s_globals_written);
  Alcotest.(check (list string)) "write propagates to Mid" [ "g_state" ]
    (IP.SS.elements mid.IP.s_globals_written);
  Alcotest.(check bool) "Mid impure" false mid.IP.s_pure;
  Alcotest.(check bool) "Pure pure" true pure.IP.s_pure;
  Alcotest.(check string) "Leaf depth 1" "1" (IP.render_depth leaf.IP.s_call_depth);
  Alcotest.(check string) "Mid depth 2" "2" (IP.render_depth mid.IP.s_call_depth);
  Alcotest.(check int) "Leaf on level 0" 0 leaf.IP.s_level;
  Alcotest.(check int) "Mid above Leaf" 1 mid.IP.s_level

let test_depth_chain_and_unbounded () =
  let ip =
    summary_of
      "int C() { return 1; }\n\
       int B() { return C(); }\n\
       int A() { return B(); }\n\
       int R(int n) { if (n <= 0) { return 0; } return R(n - 1); }"
  in
  Alcotest.(check string) "A depth 3" "3"
    (IP.render_depth (find ip "A").IP.s_call_depth);
  let r = find ip "R" in
  Alcotest.(check bool) "R recursive" true r.IP.s_recursive;
  (match r.IP.s_call_depth with
   | IP.Unbounded [ "R" ] -> ()
   | d -> Alcotest.failf "R depth should be unbounded via R, got %s" (IP.render_depth d));
  (match ip.IP.max_call_depth with
   | IP.Unbounded _ -> ()
   | d -> Alcotest.failf "program depth should be unbounded, got %s" (IP.render_depth d));
  (match (find ip "A").IP.s_stack_words with
   | IP.Finite _ -> ()
   | d -> Alcotest.failf "A stack bound should be finite, got %s" (IP.render_depth d))

let test_uninit_flow_positive () =
  let ip =
    summary_of
      "void Sink(int* p) { int unused = 0; }\n\
       int Use() { int x; Sink(&x); return x; }"
  in
  match ip.IP.uninit_flows with
  | [ f ] ->
    Alcotest.(check string) "variable" "x" f.IP.ip_var;
    Alcotest.(check string) "caller" "Use" f.IP.ip_function;
    Alcotest.(check string) "callee that never initializes" "Sink" f.IP.ip_callee
  | flows -> Alcotest.failf "expected exactly one flow, got %d" (List.length flows)

let test_uninit_flow_negative () =
  (* the callee writes through the pointer: no flow *)
  let ip =
    summary_of
      "void Init(int* p) { *p = 1; }\n\
       int Use() { int x; Init(&x); return x; }"
  in
  Alcotest.(check int) "initializing callee clears the flow" 0
    (List.length ip.IP.uninit_flows);
  (* unknown extern callee: conservatively assumed to initialize *)
  let ip2 = summary_of "int Use() { int x; ExternalInit(&x); return x; }" in
  Alcotest.(check int) "unknown callee stays conservative" 0
    (List.length ip2.IP.uninit_flows)

let test_module_coupling () =
  let a =
    pf ~modname:"alpha" ~path:"alpha.cc"
      "int g_shared = 0;\nint W() { g_shared = 1; return 0; }"
  in
  let b = pf ~modname:"beta" ~path:"beta.cc" "int R2() { return g_shared; }" in
  let ip = summary_of_files [ a; b ] in
  let coupling name =
    match
      List.find_opt (fun c -> c.IP.mc_module = name) ip.IP.coupling
    with
    | Some c -> c
    | None -> Alcotest.failf "no coupling row for %s" name
  in
  let alpha = coupling "alpha" and beta = coupling "beta" in
  Alcotest.(check int) "alpha declares it" 1 alpha.IP.mc_globals_declared;
  Alcotest.(check int) "alpha writes it" 1 alpha.IP.mc_globals_written;
  Alcotest.(check int) "beta reads it" 1 beta.IP.mc_globals_read;
  Alcotest.(check int) "shared from alpha's side" 1 alpha.IP.mc_shared;
  Alcotest.(check int) "shared from beta's side" 1 beta.IP.mc_shared;
  Alcotest.(check int) "one mutable global total" 1 ip.IP.globals_total

(* ------------------------------------------------------------------ *)
(* Corpus invariants                                                    *)
(* ------------------------------------------------------------------ *)

let parsed_small =
  lazy
    (Cfront.Project.parse
       (Corpus.Generator.generate ~seed:2019 Corpus.Apollo_profile.small))

let corpus_ip = lazy (IP.analyze (Lazy.force parsed_small))

let test_corpus_summary_per_function () =
  let ip = Lazy.force corpus_ip in
  Alcotest.(check int) "one summary per defined function"
    (List.length ip.IP.graph.CG.nodes)
    (List.length ip.IP.summaries)

let test_corpus_cycles_match_callgraph () =
  let ip = Lazy.force corpus_ip in
  Alcotest.(check (list (list string))) "cycles equal recursion_cycles"
    (CG.recursion_cycles ip.IP.graph) ip.IP.cycles;
  Alcotest.(check bool) "corpus recursion makes the depth unbounded"
    (ip.IP.cycles <> [])
    (match ip.IP.max_call_depth with IP.Unbounded _ -> true | IP.Finite _ -> false)

let test_corpus_resolution_accounts_every_site () =
  let r = (Lazy.force corpus_ip).IP.graph.CG.resolution in
  Alcotest.(check int) "outcome counts partition the sites" r.CG.total_sites
    (r.CG.resolved + r.CG.guessed + r.CG.ambiguous + r.CG.unresolved
     + r.CG.indirect)

let test_corpus_ip1_disjoint_from_91 () =
  (* IP-1 findings are cross-call by construction: no variable it reports
     may also be reported by the intraprocedural 9.1 analysis *)
  let ip = Lazy.force corpus_ip in
  let intraprocedural =
    List.concat_map
      (fun fn ->
        match fn.Cfront.Ast.f_body with
        | None -> []
        | Some _ ->
          List.map
            (fun (u : Dataflow.Analyses.uninit_finding) ->
              (Cfront.Ast.qualified_name fn, u.Dataflow.Analyses.u_var))
            (Dataflow.Analyses.facts_of_func fn).Dataflow.Analyses.x_uninit_reads)
      (Cfront.Project.all_functions (Lazy.force parsed_small))
  in
  List.iter
    (fun (f : IP.uninit_flow) ->
      if List.mem (f.IP.ip_function, f.IP.ip_var) intraprocedural then
        Alcotest.failf "flow %s in %s duplicates a 9.1 finding" f.IP.ip_var
          f.IP.ip_function)
    ip.IP.uninit_flows

(* The audit builds the call graph once, inside interproc, and MISRA,
   the metrics, the architecture and the cache manifest all read it.
   It must equal a build over every defined function in file order and
   one over the per-module function lists. *)
let test_corpus_one_graph seed () =
  let parsed =
    Cfront.Project.parse
      (Corpus.Generator.generate ~seed Corpus.Apollo_profile.small)
  in
  let by_module =
    List.concat_map
      (fun m ->
        Cfront.Project.defined_functions
          (Cfront.Project.parsed_files_of_module parsed m))
      (Cfront.Project.module_names parsed.Cfront.Project.project)
  in
  let shared = (IP.analyze parsed).IP.graph in
  List.iter
    (fun (name, (g : CG.t)) ->
      Alcotest.(check (list string)) (name ^ ": nodes") g.CG.nodes shared.CG.nodes;
      Alcotest.(check (list (pair string string)))
        (name ^ ": edges") g.CG.edges shared.CG.edges;
      Alcotest.(check bool) (name ^ ": sites") true (g.CG.sites = shared.CG.sites);
      Alcotest.(check bool)
        (name ^ ": resolution") true
        (g.CG.resolution = shared.CG.resolution))
    [ ("all functions", CG.build (Cfront.Project.all_functions parsed));
      ("per module", CG.build by_module) ]

(* ------------------------------------------------------------------ *)
(* Sequential-vs-parallel differential                                  *)
(*                                                                      *)
(* The engine's level-parallel schedule must be configuration, never     *)
(* semantics: the full canonical rendering of the result — summaries,    *)
(* coupling, cycles, flows, and the IP-1 violations derived from them —  *)
(* must be identical at every worker count.                              *)
(* ------------------------------------------------------------------ *)

let render_summary (s : IP.func_summary) =
  Printf.sprintf "%s mod=%s scc=%d lvl=%d rec=%b r=[%s] w=[%s] io=%b al=%b \
                  unk=%b pure=%b d=%s st=%s un=%d pi=[%s]"
    s.IP.s_name s.IP.s_module s.IP.s_scc s.IP.s_level s.IP.s_recursive
    (String.concat "," (IP.SS.elements s.IP.s_globals_read))
    (String.concat "," (IP.SS.elements s.IP.s_globals_written))
    s.IP.s_does_io s.IP.s_allocates s.IP.s_calls_unknown s.IP.s_pure
    (IP.render_depth s.IP.s_call_depth)
    (IP.render_depth s.IP.s_stack_words)
    s.IP.s_unresolved_sites
    (String.concat ","
       (List.map (fun (p, b) -> Printf.sprintf "%s=%b" p b) s.IP.s_param_inits))

let canonical (ip : IP.t) =
  List.map render_summary ip.IP.summaries
  @ List.map (String.concat "->") ip.IP.cycles
  @ List.map
      (fun (c : IP.module_coupling) ->
        Printf.sprintf "%s f=%d decl=%d r=%d w=%d sh=%d" c.IP.mc_module
          c.IP.mc_functions c.IP.mc_globals_declared c.IP.mc_globals_read
          c.IP.mc_globals_written c.IP.mc_shared)
      ip.IP.coupling
  @ List.map
      (fun (f : IP.uninit_flow) ->
        Printf.sprintf "%s %s %s %s %s" f.IP.ip_var f.IP.ip_function
          f.IP.ip_callee
          (Cfront.Loc.to_string f.IP.ip_call_loc)
          (Cfront.Loc.to_string f.IP.ip_use_loc))
      ip.IP.uninit_flows
  @ [ Printf.sprintf "sccs=%d levels=%d depth=%s stack=%s globals=%d"
        ip.IP.n_sccs ip.IP.n_levels
        (IP.render_depth ip.IP.max_call_depth)
        (IP.render_depth ip.IP.max_stack_words)
        ip.IP.globals_total ]

let ip1_violations parsed =
  match Misra.Registry.find_rule "IP-1" with
  | None -> Alcotest.fail "rule IP-1 not registered"
  | Some rule ->
    List.map
      (fun (v : Misra.Rule.violation) ->
        Printf.sprintf "%s %s" (Cfront.Loc.to_string v.Misra.Rule.loc)
          v.Misra.Rule.message)
      (rule.Misra.Rule.check (Misra.Rule.build_context parsed))

let restore_jobs = Util.Pool.default_jobs ()

let run_at ~jobs =
  Util.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  let parsed = Lazy.force parsed_small in
  (canonical (IP.analyze parsed), ip1_violations parsed)

let differential_oracle = lazy (run_at ~jobs:1)

let check_jobs jobs () =
  let oracle_summaries, oracle_ip1 = Lazy.force differential_oracle in
  let par_summaries, par_ip1 = run_at ~jobs in
  Alcotest.(check (list string))
    (Printf.sprintf "canonical summaries identical at jobs=%d" jobs)
    oracle_summaries par_summaries;
  Alcotest.(check (list string))
    (Printf.sprintf "IP-1 violations identical at jobs=%d" jobs)
    oracle_ip1 par_ip1

(* ------------------------------------------------------------------ *)
(* Direct facts against the CFG-based walk                              *)
(* ------------------------------------------------------------------ *)

let check_direct label tus =
  let globals = Census_reference.globals_of_tus tus in
  let fns = List.concat_map Cfront.Ast.functions_of_tu tus in
  Alcotest.(check (list string)) (label ^ ": direct facts == CFG-based facts") []
    (Census_reference.direct_mismatches ~globals fns);
  Alcotest.(check bool) (label ^ ": functions compared") true
    (Census_reference.defined fns <> [])

let test_direct_corpus () =
  List.iter
    (fun seed ->
      let parsed =
        Cfront.Project.parse (Corpus.Generator.generate ~seed Corpus.Apollo_profile.small)
      in
      check_direct (Printf.sprintf "small seed %d" seed)
        (List.map Cfront.Project.tu parsed.Cfront.Project.files))
    [ 7; 2019 ]

let test_direct_embedded () =
  check_direct "yolo" (Corpus.Yolo_src.parse_all ());
  check_direct "stencil" (Corpus.Stencil_src.parse_all ())

(* A case label naming a global (not lowered, so no read); [&g], [g +=
   1], [g = 1] and [g++] on globals (writes; [+=] and [++] read too); a
   local shadowing a global, declared after its use; a declaration in a
   for init; parameters named only in a case label or under sizeof; a
   [&x] call argument; IO and allocation calls in a case label. *)
let direct_edges =
  "int g; int h; int k; int m; int s; int c; const int kc = 1;\n\
   void Take(int *p);\n\
   int Label(int a, int only_case) { switch (a) { case c: return 1; case only_case: return 2; } return 0; }\n\
   void Effects(int a) { Take(&g); h += 1; k = 1; m++; }\n\
   int Shadow(int a) { s = a; int s = 2; return s; }\n\
   int Loop(int n) { int t = 0; for (int h = 0; h < n; h++) { t += h + g; } return t; }\n\
   int Size(int a, int sized) { return sizeof(sized) + kc; }\n\
   void Io(int a) { switch (a) { case printf(\"x\"): break; case malloc(1): break; } }\n\
   void Frame(int a) { int buf[8]; int grid[2][3]; }\n"

let test_direct_edges () =
  let tu = parse ~file:"d.cc" direct_edges in
  Alcotest.(check (list string)) "edges parse" [] tu.Cfront.Ast.diags;
  check_direct "edges" [ tu ];
  let globals = Hashtbl.create 8 in
  IP.SS.iter
    (fun g -> Hashtbl.replace globals g ())
    (Census_reference.globals_of_tus [ tu ]);
  let facts name =
    IP.direct_facts ~globals
      (List.find
         (fun (f : Cfront.Ast.func) ->
           f.Cfront.Ast.f_name = name && f.Cfront.Ast.f_body <> None)
         (Cfront.Ast.functions_of_tu tu))
  in
  let names set = IP.SS.elements set in
  let label = facts "Label" in
  Alcotest.(check (list string)) "case label reads nothing" [] (names label.IP.dr_reads);
  Alcotest.(check (list string)) "parameter named only in a case label"
    [ "a"; "only_case" ] (names label.IP.dr_params_mentioned);
  let effects = facts "Effects" in
  Alcotest.(check (list string)) "writes: &g, +=, =, ++" [ "g"; "h"; "k"; "m" ]
    (names effects.IP.dr_writes);
  Alcotest.(check (list string)) "reads: += and ++" [ "h"; "m" ] (names effects.IP.dr_reads);
  Alcotest.(check bool) "passes an address" true effects.IP.dr_passes_address;
  Alcotest.(check (list string)) "shadowed global" [] (names (facts "Shadow").IP.dr_writes);
  Alcotest.(check (list string)) "for-init local shadows" [ "g" ] (names (facts "Loop").IP.dr_reads);
  Alcotest.(check (list string)) "parameter under sizeof" [ "sized" ]
    (names (facts "Size").IP.dr_params_mentioned);
  let io = facts "Io" in
  Alcotest.(check bool) "IO in a case label" true io.IP.dr_io;
  Alcotest.(check bool) "allocation in a case label" true io.IP.dr_alloc;
  Alcotest.(check int) "frame words" (2 + 1 + 8 + 6) (facts "Frame").IP.dr_frame

let () =
  Alcotest.run "interproc"
    [
      ( "direct facts",
        [
          Alcotest.test_case "small corpus equals the CFG-based walk" `Quick test_direct_corpus;
          Alcotest.test_case "yolo and stencil equal the CFG-based walk" `Quick
            test_direct_embedded;
          Alcotest.test_case "edge cases" `Quick test_direct_edges;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "shadowed: scope preferred" `Quick
            test_shadowed_scope_preference;
          Alcotest.test_case "shadowed: guessed fallback flagged" `Quick
            test_shadowed_guessed_fallback;
          Alcotest.test_case "kernel launch edge" `Quick test_kernel_launch_edge;
          Alcotest.test_case "function pointer taken" `Quick test_fnptr_taken;
          Alcotest.test_case "fnptr shadowed by local" `Quick
            test_fnptr_shadowed_by_local;
          Alcotest.test_case "member call: same file preferred" `Quick
            test_member_same_file_preferred;
          Alcotest.test_case "member call: ambiguous, no edge" `Quick
            test_member_ambiguous_no_edge;
          Alcotest.test_case "recursion cycles" `Quick test_recursion_cycles;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "purity and global propagation" `Quick
            test_purity_and_global_propagation;
          Alcotest.test_case "depth chain and unbounded" `Quick
            test_depth_chain_and_unbounded;
          Alcotest.test_case "cross-call uninit: positive" `Quick
            test_uninit_flow_positive;
          Alcotest.test_case "cross-call uninit: negative" `Quick
            test_uninit_flow_negative;
          Alcotest.test_case "module coupling" `Quick test_module_coupling;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "one summary per function" `Quick
            test_corpus_summary_per_function;
          Alcotest.test_case "cycles match call graph" `Quick
            test_corpus_cycles_match_callgraph;
          Alcotest.test_case "resolution partitions sites" `Quick
            test_corpus_resolution_accounts_every_site;
          Alcotest.test_case "IP-1 disjoint from 9.1" `Quick
            test_corpus_ip1_disjoint_from_91;
          Alcotest.test_case "one call graph, seed 7" `Quick
            (test_corpus_one_graph 7);
          Alcotest.test_case "one call graph, seed 2019" `Quick
            (test_corpus_one_graph 2019);
        ] );
      ( "differential",
        [
          Alcotest.test_case "jobs=2 matches oracle" `Quick (check_jobs 2);
          Alcotest.test_case "jobs=8 matches oracle" `Quick (check_jobs 8);
        ] );
    ]
