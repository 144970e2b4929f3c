(* Differential oracle harness for the content-addressed artifact cache.

   The cold jobs=1 no-cache run is the oracle: a warm run, an
   incremental run after an edit, and a run over a corrupted cache must
   all reproduce its report bytes, its adcheck-evidence/1 journal, and
   its provenance finding ids exactly — the cache may only change how
   fast an answer arrives, never the answer.

   Four layers of evidence:

   - unit tests on the store (roundtrip, truncation/garbage/salt-mismatch
     detection, owner-scoped removal, version-salt wipe) and on each
     project's [manifest] path list (the sweep of departed paths);
   - QCheck: random edit sequences (touch / revert / rename) over a
     small project, each step running warm against one store, must end
     behaviorally equal to a cold run from the final tree — same
     output, every cold artifact already present, no artifact owned by
     a path outside the final tree, zero misses on a re-run — and
     reverting an edit must restore cache hits;
   - the full audit pipeline on a trimmed corpus under the tick clock:
     cold-with-cache, warm at jobs 1/2/8, and incremental-after-edit
     runs compared byte-for-byte against the no-cache oracle, with the
     warm runs storing nothing and the edit storing only what it
     recomputes;
   - the real binary: `misra --cache` cold/warm/corrupted stdout versus
     the cacheless run, and an `adcheck serve` session smoke test. *)

module P = Provenance

let restore_jobs = Util.Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* Filesystem helpers                                                  *)
(* ------------------------------------------------------------------ *)

let fresh_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The owner field of an artifact's header (its third line, after the
   kind, key, length and digest), or None for "-". *)
let artifact_owner path =
  match String.split_on_char '\n' (read_file path) with
  | _magic :: _salt :: header :: _ -> (
    match String.split_on_char ' ' header with
    | _ :: _ :: _ :: _ :: (_ :: _ as owner) ->
      let owner = String.concat " " owner in
      if owner = "-" then None else Some owner
    | _ -> None)
  | _ -> None

let artifact_files dir =
  List.sort compare
    (List.filter
       (fun f -> Filename.check_suffix f ".art")
       (Array.to_list (Sys.readdir dir)))

let paths_of tree =
  List.map
    (fun (f : Cfront.Project.source_file) -> f.Cfront.Project.path)
    (Cfront.Project.all_files tree)

let stats_delta c f =
  let b = Cache.stats c in
  let r = f () in
  let a = Cache.stats c in
  ( r,
    { Cache.hits = a.Cache.hits - b.Cache.hits;
      misses = a.Cache.misses - b.Cache.misses;
      stores = a.Cache.stores - b.Cache.stores;
      corrupt = a.Cache.corrupt - b.Cache.corrupt;
      invalidated = a.Cache.invalidated - b.Cache.invalidated } )

(* ------------------------------------------------------------------ *)
(* Store: roundtrip and corruption robustness                          *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  let dir = fresh_dir "adcheck-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let key = Cache.key ~kind:"parse" [ "a.cc"; "deadbeef" ] in
  Alcotest.(check bool) "empty store misses" true
    (Cache.find c ~kind:"parse" ~key = (None : (int * string) option));
  Cache.store c ~owner:"a.cc" ~kind:"parse" ~key (42, "payload");
  Alcotest.(check bool) "stored artifact hits" true
    (Cache.find c ~kind:"parse" ~key = Some (42, "payload"));
  let s = Cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "one store" 1 s.Cache.stores;
  (* same inputs, same key — across processes this is what makes warm
     runs find cold runs' artifacts *)
  Alcotest.(check string) "key derivation is stable" key
    (Cache.key ~kind:"parse" [ "a.cc"; "deadbeef" ]);
  Alcotest.(check bool) "kind is part of the key" true
    (Cache.key ~kind:"dataflow" [ "a.cc"; "deadbeef" ] <> key);
  (* memo: hit path returns the stored value without calling f *)
  let called = ref false in
  let v =
    Cache.memo c ~kind:"parse" ~key (fun () ->
        called := true;
        (0, "recomputed"))
  in
  Alcotest.(check bool) "memo served warm" true (v = (42, "payload"));
  Alcotest.(check bool) "memo did not recompute" false !called

let corrupt_one dir ~mutate =
  match artifact_files dir with
  | [] -> Alcotest.fail "no artifact to corrupt"
  | f :: _ ->
    let path = Filename.concat dir f in
    write_file path (mutate (read_file path))

let check_corrupt_recovers name ~mutate =
  let dir = fresh_dir "adcheck-corrupt" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let key = Cache.key ~kind:"misra" [ "15.1"; "abc" ] in
  Cache.store c ~kind:"misra" ~key [ (1, "x"); (2, "y") ];
  corrupt_one dir ~mutate;
  Alcotest.(check bool)
    (name ^ ": detected and reported as a miss") true
    (Cache.find c ~kind:"misra" ~key = (None : (int * string) list option));
  let s = Cache.stats c in
  Alcotest.(check int) (name ^ ": counted corrupt") 1 s.Cache.corrupt;
  (* the damaged file is gone; recompute-and-store round-trips again *)
  let v =
    Cache.memo c ~kind:"misra" ~key (fun () -> [ (3, "recomputed") ])
  in
  Alcotest.(check bool) (name ^ ": recompute stored") true (v = [ (3, "recomputed") ]);
  Alcotest.(check bool) (name ^ ": store serves the recompute") true
    (Cache.find c ~kind:"misra" ~key = Some [ (3, "recomputed") ])

let test_corrupt_truncated () =
  check_corrupt_recovers "truncated" ~mutate:(fun s ->
      String.sub s 0 (String.length s / 2))

let test_corrupt_garbage () =
  check_corrupt_recovers "garbage" ~mutate:(fun s ->
      String.make (String.length s) 'Z')

let test_corrupt_salt_mismatch () =
  check_corrupt_recovers "salt-mismatch" ~mutate:(fun s ->
      match String.index_opt s '\n' with
      | None -> "bogus"
      | Some i ->
        (* splice a foreign schema salt into the second header line *)
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let j = String.index rest '\n' in
        String.sub s 0 (i + 1) ^ "adcheck-cache/0 schema=0"
        ^ String.sub rest j (String.length rest - j))

let test_corrupt_extended () =
  check_corrupt_recovers "extended" ~mutate:(fun s -> s ^ "\x00")

(* one bit of the payload's last byte *)
let test_corrupt_flipped_bit () =
  check_corrupt_recovers "flipped-bit" ~mutate:(fun s ->
      let b = Bytes.of_string s in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b)

(* Reads share one buffer per domain.  A small artifact read right
   after a large one is validated against its own length: it hits with
   its own value, and a large artifact truncated in place after a hit
   is a corrupt miss even though the buffer still holds its old tail. *)
let test_small_after_large () =
  let dir = fresh_dir "adcheck-buffer" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let large = List.init 20_000 (fun i -> (i, string_of_int i)) in
  let small = [ (7, "seven") ] in
  let klarge = Cache.key ~kind:"misra" [ "large" ] in
  let ksmall = Cache.key ~kind:"misra" [ "small" ] in
  Cache.store c ~kind:"misra" ~key:klarge large;
  Cache.store c ~kind:"misra" ~key:ksmall small;
  let find key : (int * string) list option = Cache.find c ~kind:"misra" ~key in
  Alcotest.(check bool) "large hits" true (find klarge = Some large);
  Alcotest.(check bool) "small hits with its own value" true (find ksmall = Some small);
  Alcotest.(check bool) "large hits again" true (find klarge = Some large);
  let path = Filename.concat dir ("misra-" ^ klarge ^ ".art") in
  let raw = read_file path in
  write_file path (String.sub raw 0 (String.length raw - 1));
  Alcotest.(check bool) "truncated in place: a miss" true (find klarge = None);
  let s = Cache.stats c in
  Alcotest.(check int) "three hits" 3 s.Cache.hits;
  Alcotest.(check int) "one corrupt" 1 s.Cache.corrupt;
  Alcotest.(check bool) "recompute matches the stored value" true
    (Cache.memo c ~kind:"misra" ~key:klarge (fun () -> large) = large)

(* Hits from 2 and 8 worker domains, each reading into its own buffer,
   equal the sequential reads of artifacts of mixed sizes. *)
let test_parallel_hits () =
  let dir = fresh_dir "adcheck-par-hits" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let value i = List.init (1 + (i * 997 mod 5000)) (fun j -> (i, j)) in
  let keys = List.init 48 (fun i -> (i, Cache.key ~kind:"parse" [ string_of_int i ])) in
  List.iter (fun (i, key) -> Cache.store c ~kind:"parse" ~key (value i)) keys;
  let read (_, key) : (int * int) list option = Cache.find c ~kind:"parse" ~key in
  let oracle = List.map read keys in
  Alcotest.(check bool) "jobs=1 hits every value" true
    (oracle = List.map (fun (i, _) -> Some (value i)) keys);
  List.iter
    (fun jobs ->
      let pool = Util.Pool.create ~jobs in
      Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) @@ fun () ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d == jobs=1" jobs)
        true
        (Util.Pool.map_chunked ~chunk_size:1 pool read keys = oracle))
    [ 2; 8 ];
  let s = Cache.stats c in
  Alcotest.(check int) "every read a hit" (3 * List.length keys) s.Cache.hits;
  Alcotest.(check int) "no corrupt read" 0 s.Cache.corrupt

let test_remove_owned () =
  let dir = fresh_dir "adcheck-owned" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  Cache.store c ~owner:"a.cc" ~kind:"parse"
    ~key:(Cache.key ~kind:"parse" [ "a" ]) "A";
  Cache.store c ~owner:"a.cc" ~kind:"dataflow"
    ~key:(Cache.key ~kind:"dataflow" [ "a" ]) "Adf";
  Cache.store c ~owner:"b.cc" ~kind:"parse"
    ~key:(Cache.key ~kind:"parse" [ "b" ]) "B";
  Cache.store c ~kind:"misra" ~key:(Cache.key ~kind:"misra" [ "p" ]) "M";
  Alcotest.(check int) "only a.cc's two artifacts removed" 2
    (Cache.remove_owned c [ "a.cc" ]);
  Alcotest.(check bool) "other owner survives" true
    (Cache.find c ~kind:"parse" ~key:(Cache.key ~kind:"parse" [ "b" ])
     = Some "B");
  Alcotest.(check bool) "unowned artifact survives" true
    (Cache.find c ~kind:"misra" ~key:(Cache.key ~kind:"misra" [ "p" ])
     = Some "M");
  Alcotest.(check int) "removals counted as invalidated" 2
    (Cache.stats c).Cache.invalidated

(* Without a store the global store is the null one: a lookup misses
   even after a store, a store, sweep or removal writes and removes
   nothing (run from an empty working directory, which stays empty),
   and nothing is counted, neither a stats field nor a [cache.*]
   telemetry counter.  [with_global] leaves it installed again. *)
let test_null_store () =
  let dir = fresh_dir "adcheck-null" in
  let cwd = Sys.getcwd () in
  Fun.protect ~finally:(fun () -> Sys.chdir cwd; rm_rf dir) @@ fun () ->
  Cache.with_global (Cache.open_dir (Filename.concat dir "store")) ignore;
  rm_rf (Filename.concat dir "store");
  Sys.chdir dir;
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false; Telemetry.reset ())
  @@ fun () ->
  let c = Cache.global () in
  Alcotest.(check string) "with_global restores the null store" "" (Cache.dir c);
  let key = Cache.key ~kind:"parse" [ "a.cc" ] in
  Cache.store c ~owner:"a.cc" ~kind:"parse" ~key "A";
  Alcotest.(check bool) "a stored artifact still misses" true
    (Cache.find c ~kind:"parse" ~key = (None : string option));
  let calls = ref 0 in
  let compute () = incr calls; "A" in
  ignore (Cache.memo c ~kind:"parse" ~key compute);
  ignore (Cache.memo c ~kind:"parse" ~key compute);
  Alcotest.(check int) "memo computes every time" 2 !calls;
  Cache.sweep c ~name:"proj" [ "a.cc" ];
  Cache.sweep c ~name:"proj" [ "b.cc" ];
  Alcotest.(check int) "removal removes nothing" 0 (Cache.remove_owned c [ "a.cc" ]);
  Alcotest.(check (list string)) "no file written" [] (Array.to_list (Sys.readdir "."));
  Alcotest.(check bool) "stats are all zero" true
    (Cache.stats c
     = { Cache.hits = 0; misses = 0; stores = 0; corrupt = 0; invalidated = 0 });
  Alcotest.(check (list string)) "no cache.* counter" []
    (List.filter_map
       (fun (k, _) -> if String.starts_with ~prefix:"cache." k then Some k else None)
       (Telemetry.counters ()))

(* The path list is written when it changes and only then; a path that
   leaves the list takes its artifacts with it, and the rest stay. *)
let test_sweep () =
  let dir = fresh_dir "adcheck-sweep" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let key owner = Cache.key ~kind:"parse" [ owner ] in
  let put owner = Cache.store c ~owner ~kind:"parse" ~key:(key owner) owner in
  let has owner = Cache.find c ~kind:"parse" ~key:(key owner) = Some owner in
  let sweep ?(name = "proj") paths =
    snd (stats_delta c (fun () -> Cache.sweep c ~name paths))
  in
  Alcotest.(check int) "first sweep records the list" 1
    (sweep [ "b.cc"; "a.cc" ]).Cache.stores;
  put "a.cc";
  put "b.cc";
  let d = sweep [ "a.cc"; "b.cc" ] in
  Alcotest.(check int) "same paths in another order: no write" 0 d.Cache.stores;
  Alcotest.(check int) "same paths: nothing removed" 0 d.Cache.invalidated;
  let d = sweep [ "a.cc"; "c.cc" ] in
  Alcotest.(check int) "changed list is written" 1 d.Cache.stores;
  Alcotest.(check int) "the departed path's artifact is removed" 1
    d.Cache.invalidated;
  Alcotest.(check bool) "departed path misses" false (has "b.cc");
  Alcotest.(check bool) "remaining path hits" true (has "a.cc");
  let d = sweep ~name:"other" [ "z.cc" ] in
  Alcotest.(check int) "another project has its own list" 1 d.Cache.stores;
  Alcotest.(check int) "another project removes nothing" 0 d.Cache.invalidated

(* A store written by another tool version is wiped, not trusted —
   including schema=1, whose covphase payload is a 4-tuple that would
   unmarshal unsafely at today's 2-tuple type, and schema=2, whose
   dataflow payload holds per-function counts where today's holds the
   per-function fact lists, schema=3, whose bytecode payload has no
   global-initializer sequence, and schema=4, whose parse payload holds
   a [Token.t list] and the source text where today's holds a token
   table and leaves the source out, schema=5, whose [manifest]
   payload is a dependency record where today's is a path list, and
   schema=6, whose [metrics] payload embeds a MISRA report record with
   a deviation-outcome field that today's record no longer has, and
   schema=7, whose [misra] payload is a violation list where today's is
   the rule's journal findings, and schema=8, which may hold [bytecode]
   and [scenario] artifacts, kinds that no producer reads any more and,
   having no owner, no sweep removes.  The wipe also removes a temp file
   that a killed writer left. *)
let test_version_salt_wipe () =
  List.iter
    (fun foreign ->
      let dir = fresh_dir "adcheck-version" in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let c = Cache.open_dir dir in
      let key = Cache.key ~kind:"parse" [ "v" ] in
      Cache.store c ~kind:"parse" ~key "V";
      Alcotest.(check bool) "artifact present before reopen" true
        (artifact_files dir <> []);
      write_file (Filename.concat dir ("parse-" ^ key ^ ".art.tmp.4242.0")) "half";
      write_file (Filename.concat dir "VERSION") (foreign ^ "\n");
      let c2 = Cache.open_dir dir in
      Alcotest.(check (list string))
        (foreign ^ ": salt mismatch wipes the store and its temp files")
        [ "VERSION" ] (Array.to_list (Sys.readdir dir));
      Alcotest.(check bool) "old artifact is a clean miss" true
        (Cache.find c2 ~kind:"parse" ~key = (None : string option));
      Alcotest.(check int) "wipe is not a corruption event" 0
        (Cache.stats c2).Cache.corrupt)
    [ "adcheck-cache/0 schema=0"; "adcheck-cache/1 schema=1";
      "adcheck-cache/1 schema=2"; "adcheck-cache/1 schema=3";
      "adcheck-cache/1 schema=4"; "adcheck-cache/1 schema=5";
      "adcheck-cache/1 schema=6"; "adcheck-cache/1 schema=7";
      "adcheck-cache/1 schema=8" ]

(* ------------------------------------------------------------------ *)
(* A small real project: parse + MISRA + dataflow through one store    *)
(* ------------------------------------------------------------------ *)

(* defs.h <- alpha.cc (include + call) <- beta.cc (include + call)
   <- gamma.cc (call only): the files depend on each other through
   includes and calls, which content keys alone must keep exact. *)
let base_sources =
  [ ("m/defs.h", "int shared_limit() { return 10; }\n");
    ( "m/alpha.cc",
      "#include \"m/defs.h\"\n\
       int alpha(int x) { int y = 0; if (x > shared_limit()) { y = x; } \
       return y; }\n" );
    ( "m/beta.cc",
      "#include \"m/defs.h\"\n\
       int beta(int x) { int a; if (x > 0) { a = 1; } return a + alpha(x); }\n"
    );
    ( "m/gamma.cc",
      "int gamma_fn(int n) { int s = 0; \
       for (int i = 0; i < n; ++i) { s += beta(i); } return s; }\n" ) ]

let project_of files =
  Cfront.Project.make ~name:"cachetest"
    [ { Cfront.Project.m_name = "m";
        m_files =
          List.map
            (fun (path, content) ->
              { Cfront.Project.path; modname = "m";
                header = Filename.check_suffix path ".h"; content })
            files } ]

(* A standalone MISRA run looks every rule's artifact up before it
   builds the rule context: the cold run lowers every function once
   (for the dataflow facts; interproc reads its direct facts off the
   tree, and none of these functions passes [&x] to a call) and runs
   interproc once, the warm run over the same store
   does neither and reports the same violations.  The cold context comes
   from the audit's producer, so it also stores every file's dataflow
   artifact: the per-file facts of the same tree are all hits.  A warm
   rule derives its violations from its stored findings, and they must
   be the no-cache run's, field for field. *)
let test_warm_misra_builds_no_context () =
  let dir = fresh_dir "adcheck-misra-warm" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let parsed = Cfront.Project.parse (project_of base_sources) in
  let run () =
    Telemetry.reset ();
    Telemetry.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled false)
      (fun () ->
        let report, _ =
          P.collect (fun () ->
              Cache.with_global c (fun () -> Misra.Registry.run_project parsed))
        in
        ( report,
          Telemetry.counter "dataflow.cfgs",
          Telemetry.counter "interproc.functions" ))
  in
  let nocache, _ = P.collect (fun () -> Misra.Registry.run_project parsed) in
  Alcotest.(check bool) "the tree violates some rule" true
    (nocache.Misra.Registry.total_violations > 0);
  List.iter
    (fun ((r : Misra.Rule.t), vs) ->
      List.iter
        (fun (v : Misra.Rule.violation) ->
          Alcotest.(check string) "a violation names its rule" r.Misra.Rule.id
            v.Misra.Rule.rule_id)
        vs)
    nocache.Misra.Registry.per_rule;
  let cold, cold_cfgs, cold_ip = run () in
  let _, facts =
    stats_delta c (fun () ->
        P.collect (fun () ->
            Cache.with_global c (fun () -> Dataflow.Analyses.facts_of_parsed parsed)))
  in
  Alcotest.(check int) "cold context stored every file's facts"
    (List.length parsed.Cfront.Project.files) facts.Cache.hits;
  Alcotest.(check int) "per-file facts: no miss" 0 facts.Cache.misses;
  let warm, warm_cfgs, warm_ip = run () in
  Telemetry.reset ();
  Alcotest.(check int) "cold: one CFG per function" 4 cold_cfgs;
  Alcotest.(check int) "cold: interproc ran once" 4 cold_ip;
  Alcotest.(check int) "warm: no CFG built" 0 warm_cfgs;
  Alcotest.(check int) "warm: interproc not run" 0 warm_ip;
  Alcotest.(check string) "warm report == cold report"
    (Misra.Registry.render_summary cold) (Misra.Registry.render_summary warm);
  (* [compare], not [=]: the rules hold closures, physically shared *)
  Alcotest.(check bool) "warm violations == no-cache violations" true
    (compare warm.Misra.Registry.per_rule nocache.Misra.Registry.per_rule = 0)

(* One warm run over [tree] against store [c], replaying the audit's
   cache discipline: sweep the artifacts of paths that left the tree
   ({!Cache.sweep}, as [Audit.run] does), parse, then the metric record
   (rule context, interproc, core metrics and MISRA) + per-file
   dataflow.  Returns a rendering that covers every cached
   artifact kind plus the finding ids, each once, as the journal holds
   them: a cold rule context journals the dataflow findings that the
   per-file pass then replays from the store.  Also returns the metric
   record, for comparison with {!metrics_oracle}. *)
let lib_run_metrics c tree =
  Cache.sweep c ~name:tree.Cfront.Project.p_name (paths_of tree);
  Cache.with_global c @@ fun () ->
  let (metrics, summaries), findings =
    P.collect (fun () ->
        let parsed = Cfront.Project.parse tree in
        let metrics = Iso26262.Project_metrics.of_parsed parsed in
        let summaries =
          List.concat
            (List.map2
               (fun (pf : Cfront.Project.parsed_file) key ->
                 List.map Dataflow.Analyses.summary_of_facts
                   (Dataflow.Analyses.facts_of_file
                      ~path:pf.Cfront.Project.file.Cfront.Project.path ~key
                      (fun () -> Cfront.Project.defined_functions [ pf ])))
               parsed.Cfront.Project.files
               (Cfront.Project.file_keys parsed))
        in
        (metrics, summaries))
  in
  ( String.concat "\n"
      (Misra.Registry.render_summary metrics.Iso26262.Project_metrics.misra
       :: List.map
            (fun (s : Dataflow.Analyses.func_summary) ->
              Printf.sprintf "%s blocks=%d edges=%d unreachable=%d dead=%d \
                              uninit=%d const=%d"
                s.Dataflow.Analyses.s_function s.Dataflow.Analyses.s_blocks
                s.Dataflow.Analyses.s_edges s.Dataflow.Analyses.s_unreachable
                s.Dataflow.Analyses.s_dead_stores
                s.Dataflow.Analyses.s_uninit_reads
                s.Dataflow.Analyses.s_const_conditions)
            summaries
       @ List.sort_uniq compare (List.map (fun f -> f.P.f_id) findings)),
    metrics )

let lib_run c tree = fst (lib_run_metrics c tree)

(* The metric record of a no-cache run over [tree]. *)
let metrics_oracle tree =
  fst (P.collect (fun () -> Iso26262.Project_metrics.of_parsed (Cfront.Project.parse tree)))

(* [compare], not [=]: a record holds floats, and the MISRA report's
   rules hold closures.  Each side's report is set to the oracle's own,
   which [compare] then skips as physically equal; the reports are
   compared through their rendering in {!lib_run}'s output. *)
let same_metrics ~(oracle : Iso26262.Project_metrics.t) (m : Iso26262.Project_metrics.t) =
  let module PM = Iso26262.Project_metrics in
  compare m.PM.interproc oracle.PM.interproc = 0
  && compare { m with PM.misra = oracle.PM.misra } oracle = 0

let test_revert_restores_hits () =
  let dir = fresh_dir "adcheck-revert" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let out0 = lib_run c (project_of base_sources) in
  List.iteri
    (fun i (path, content) ->
      let edited =
        List.map
          (fun (p, s) ->
            if p = path then
              (p, s ^ Printf.sprintf "int probe_%d() { return %d; }\n" i i)
            else (p, s))
          base_sources
      in
      let _ = lib_run c (project_of edited) in
      (* revert: every artifact of the original tree is still in the
         store, so the run must answer entirely warm *)
      let out2, d = stats_delta c (fun () -> lib_run c (project_of base_sources)) in
      Alcotest.(check string)
        (Printf.sprintf "revert of %s reproduces the original output" path)
        out0 out2;
      Alcotest.(check int)
        (Printf.sprintf "revert of %s recomputes nothing" path)
        0 d.Cache.misses;
      Alcotest.(check bool)
        (Printf.sprintf "revert of %s answers warm" path)
        true (d.Cache.hits > 0);
      ignore content)
    base_sources

(* ------------------------------------------------------------------ *)
(* QCheck: random edit sequences over one store                        *)
(* ------------------------------------------------------------------ *)

type edit =
  | Touch of int * int  (** file index, content variant *)
  | Revert of int
  | Rename of bool  (** rename gamma.cc (nothing depends on it) *)

let show_edit = function
  | Touch (i, v) -> Printf.sprintf "touch(%d,v%d)" i v
  | Revert i -> Printf.sprintf "revert(%d)" i
  | Rename b -> Printf.sprintf "rename(%b)" b

let edit_gen =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun i v -> Touch (i, v)) (int_range 0 3) (int_range 1 3));
        (2, map (fun i -> Revert i) (int_range 0 3));
        (1, map (fun b -> Rename b) bool) ])

let edits_arb =
  QCheck.make
    ~print:(fun es -> String.concat "; " (List.map show_edit es))
    QCheck.Gen.(list_size (int_range 1 4) edit_gen)

(* Tree state: a content variant per base file, plus gamma's name. *)
let tree_of_state (variants, renamed) =
  project_of
    (List.mapi
       (fun i (path, content) ->
         let path =
           if i = 3 && renamed then "m/gamma_renamed.cc" else path
         in
         let content =
           if variants.(i) = 0 then content
           else
             content
             ^ Printf.sprintf "int extra_%d_%d() { return %d; }\n" i
                 variants.(i) variants.(i)
         in
         (path, content))
       base_sources)

let apply_edit (variants, renamed) = function
  | Touch (i, v) ->
    variants.(i) <- v;
    (variants, renamed)
  | Revert i ->
    variants.(i) <- 0;
    (variants, renamed)
  | Rename b -> (variants, b)

(* After any edit sequence, the store must be behaviorally identical to
   one populated by a single cold run from the final tree: the final
   warm output matches the cold output, every artifact the cold run
   writes is already present, no artifact is owned by a path that left
   the tree (a renamed file's old name), and a re-run over the final
   tree answers without a single miss. *)
let prop_edit_sequence_converges =
  QCheck.Test.make ~name:"random edit sequences: warm == cold from final tree"
    ~count:15 edits_arb (fun edits ->
      let warm_dir = fresh_dir "qc-warm" and cold_dir = fresh_dir "qc-cold" in
      Fun.protect ~finally:(fun () -> rm_rf warm_dir; rm_rf cold_dir)
      @@ fun () ->
      let warm = Cache.open_dir warm_dir in
      let state = ref ([| 0; 0; 0; 0 |], false) in
      (* every step's interproc summary and metric record (both
         whole-tree artifacts) must equal a no-cache run's *)
      let step () =
        let tree = tree_of_state !state in
        let out, metrics = lib_run_metrics warm tree in
        if not (same_metrics ~oracle:(metrics_oracle tree) metrics) then
          QCheck.Test.fail_report "metric record <> no-cache record";
        out
      in
      let last = ref (step ()) in
      List.iter
        (fun e ->
          state := apply_edit !state e;
          last := step ())
        edits;
      let cold = Cache.open_dir cold_dir in
      let cold_out = lib_run cold (tree_of_state !state) in
      let warm_arts = artifact_files warm_dir in
      let cold_covered =
        List.for_all (fun f -> List.mem f warm_arts) (artifact_files cold_dir)
      in
      let final_paths = paths_of (tree_of_state !state) in
      let orphans =
        List.filter
          (fun f ->
            match artifact_owner (Filename.concat warm_dir f) with
            | Some owner -> not (List.mem owner final_paths)
            | None -> false)
          warm_arts
      in
      let rerun, d =
        stats_delta warm (fun () -> lib_run warm (tree_of_state !state))
      in
      if !last <> cold_out then
        QCheck.Test.fail_report "final warm output <> cold output";
      if not cold_covered then
        QCheck.Test.fail_report "cold run wrote an artifact the warm store lacks";
      if orphans <> [] then
        QCheck.Test.fail_reportf "artifact(s) owned outside the final tree: %s"
          (String.concat ", " orphans);
      if rerun <> cold_out then
        QCheck.Test.fail_report "warm re-run diverged from cold output";
      if d.Cache.misses <> 0 then
        QCheck.Test.fail_reportf "warm re-run missed %d time(s)" d.Cache.misses;
      true)

(* Edit, run, revert, run: the revert run answers with zero misses and
   reproduces the pre-edit output — content addressing never pays for
   an abandoned edit twice. *)
let prop_revert_is_warm =
  QCheck.Test.make ~name:"random edit then revert: second run fully warm"
    ~count:15
    (QCheck.make
       ~print:(fun (i, v) -> show_edit (Touch (i, v)))
       QCheck.Gen.(pair (int_range 0 3) (int_range 1 3)))
    (fun (i, v) ->
      let dir = fresh_dir "qc-revert" in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let c = Cache.open_dir dir in
      let state = ([| 0; 0; 0; 0 |], false) in
      let out0 = lib_run c (tree_of_state state) in
      let _ = lib_run c (tree_of_state (apply_edit state (Touch (i, v)))) in
      let out2, d =
        stats_delta c (fun () ->
            lib_run c (tree_of_state ([| 0; 0; 0; 0 |], false)))
      in
      if out2 <> out0 then QCheck.Test.fail_report "revert changed the output";
      if d.Cache.misses <> 0 then
        QCheck.Test.fail_reportf "revert missed %d time(s)" d.Cache.misses;
      d.Cache.hits > 0)

(* ------------------------------------------------------------------ *)
(* Deferred units                                                      *)
(* ------------------------------------------------------------------ *)

(* [base_sources] parsed cold into a fresh store, then parsed again:
   every [types] artifact hits, so every unit of the second parse is
   deferred.  Returns the store, its directory and the second parse. *)
let with_deferred_parse f =
  let dir = fresh_dir "adcheck-deferred" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let project = project_of base_sources in
  ignore (Cache.with_global c (fun () -> Cfront.Project.parse project));
  let warm = Cache.with_global c (fun () -> Cfront.Project.parse project) in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.set_enabled false)
    (fun () -> f c dir warm)

let marshaled_tus pfs = Marshal.to_string (List.map Cfront.Project.tu pfs) []

(* The files of a no-store parse of [base_sources]. *)
let fresh_files () = (Cfront.Project.parse (project_of base_sources)).Cfront.Project.files

(* Four domains force one deferred unit at once: the artifact is read
   once, one force is counted, and every domain gets the same unit. *)
let test_deferred_force_from_domains () =
  with_deferred_parse @@ fun c _dir warm ->
  let pf = List.nth warm.Cfront.Project.files 1 in
  let ready = Atomic.make 0 in
  let tus, d =
    stats_delta c (fun () ->
        List.map Domain.join
          (List.init 4 (fun _ ->
               Domain.spawn (fun () ->
                   Atomic.incr ready;
                   while Atomic.get ready < 4 do Domain.cpu_relax () done;
                   Cfront.Project.tu pf))))
  in
  Alcotest.(check int) "the artifact is read once" 1 d.Cache.hits;
  Alcotest.(check int) "and not missed" 0 d.Cache.misses;
  Alcotest.(check int) "one force counted" 1 (Telemetry.counter "parse.forced");
  Alcotest.(check bool) "every domain gets the same unit" true
    (List.for_all (fun tu -> tu == List.hd tus) tus);
  Alcotest.(check bool) "a later read is that unit" true (Cfront.Project.tu pf == List.hd tus);
  Alcotest.(check bool) "the unit is the fresh parse's" true
    (marshaled_tus [ pf ] = marshaled_tus [ List.nth (fresh_files ()) 1 ])

(* A [parse] artifact that has gone between the parse and the force
   (here: deleted) is a miss, and the unit is parsed afresh: the same
   units as a no-store parse, each stored again. *)
let test_deferred_artifact_gone () =
  with_deferred_parse @@ fun c dir warm ->
  List.iter
    (fun f -> if String.starts_with ~prefix:"parse-" f then Sys.remove (Filename.concat dir f))
    (artifact_files dir);
  let n = List.length warm.Cfront.Project.files in
  let tus, d = stats_delta c (fun () -> marshaled_tus warm.Cfront.Project.files) in
  Alcotest.(check bool) "fresh parse of every unit" true
    (tus = marshaled_tus (fresh_files ()));
  Alcotest.(check int) "every force misses" n d.Cache.misses;
  Alcotest.(check int) "and stores the unit again" n d.Cache.stores;
  Alcotest.(check int) "every unit forced" n (Telemetry.counter "parse.forced")

(* ------------------------------------------------------------------ *)
(* Full audit differential on a trimmed corpus, jobs 1/2/8             *)
(* ------------------------------------------------------------------ *)

let diff_seed = 77
let trimmed_specs = List.filteri (fun i _ -> i < 2) Corpus.Apollo_profile.small

type audit_obs = {
  a_report : string;
  a_journal : string;
  a_ids : string list;
  a_stats : Cache.stats option;  (** this run's counter deltas *)
  a_work : (string * int) list;  (** the {!work_counters} of this run *)
  a_lexed : bool;  (** the run opened a [parse.lex] span *)
  a_forced : int;  (** deferred units this run forced ([parse.forced]) *)
  a_counted : (string * int) list;
      (** this run's [provenance.findings.<kind>] counters, by kind *)
  a_journaled : (string * int) list;  (** the journal's findings per kind *)
}

(* Work counters that only a computed (not a looked-up) layer adds:
   interproc's, the core metric walk's, and the CFGs that dataflow and
   interproc build. *)
let work_counters = [ "interproc.functions"; "metrics.cc_functions"; "dataflow.cfgs" ]

(* One audit under the tick clock at [jobs], optionally against [cache]
   and over an explicit [project] tree. *)
let audit_obs ?project ~jobs ~cache () =
  Util.Pool.set_default_jobs jobs;
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Telemetry.install_tick_clock ();
  Cache.set_global cache;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_global None;
      Telemetry.use_wall_clock ();
      Telemetry.reset ();
      Telemetry.set_enabled false;
      Util.Pool.set_default_jobs restore_jobs)
  @@ fun () ->
  let run () = Iso26262.Audit.run ~seed:diff_seed ~specs:trimmed_specs ?project () in
  let audit, delta =
    match cache with
    | None -> (run (), None)
    | Some c ->
      let audit, d = stats_delta c run in
      (audit, Some d)
  in
  {
    a_report = Iso26262.Audit.render audit;
    a_journal = P.journal ();
    a_ids = List.map (fun f -> f.P.f_id) audit.Iso26262.Audit.journal;
    a_stats = delta;
    a_work = List.map (fun k -> (k, Telemetry.counter k)) work_counters;
    a_lexed =
      List.exists (fun e -> e.Telemetry.ev_name = "parse.lex") (Telemetry.events ());
    a_forced = Telemetry.counter "parse.forced";
    a_counted =
      List.filter_map
        (fun (k, n) ->
          let prefix = "provenance.findings." in
          if String.starts_with ~prefix k then
            Some (String.sub k (String.length prefix) (String.length k - String.length prefix), n)
          else None)
        (Telemetry.counters ());
    a_journaled =
      List.map
        (fun kind ->
          ( kind,
            List.length
              (List.filter (fun f -> f.P.f_kind = kind) audit.Iso26262.Audit.journal) ))
        (List.sort_uniq compare
           (List.map (fun f -> f.P.f_kind) audit.Iso26262.Audit.journal));
  }

let oracle = lazy (audit_obs ~jobs:1 ~cache:None ())

let check_matches_oracle_against ~name o obs =
  Alcotest.(check string) (name ^ ": report bytes") o.a_report obs.a_report;
  Alcotest.(check string) (name ^ ": evidence journal bytes") o.a_journal
    obs.a_journal;
  Alcotest.(check (list string)) (name ^ ": finding ids") o.a_ids obs.a_ids

let check_matches_oracle ~name obs =
  check_matches_oracle_against ~name (Lazy.force oracle) obs

(* The shared store of the cold → warm → corrupted progression below;
   populated once, in order, by Alcotest's sequential runner. *)
let audit_dir = lazy (fresh_dir "adcheck-audit-cache")
let () = at_exit (fun () -> if Lazy.is_val audit_dir then rm_rf (Lazy.force audit_dir))
let audit_store = lazy (Cache.open_dir (Lazy.force audit_dir))
let cold_misses = ref 0

let test_audit_cold_with_cache () =
  let obs = audit_obs ~jobs:1 ~cache:(Some (Lazy.force audit_store)) () in
  check_matches_oracle ~name:"cold cache jobs=1" obs;
  match obs.a_stats with
  | None -> Alcotest.fail "no cache stats"
  | Some d ->
    cold_misses := d.Cache.misses;
    Alcotest.(check bool) "cold run computes everything" true
      (d.Cache.misses > 0 && d.Cache.stores > 0);
    Alcotest.(check bool) "cold run lexes" true obs.a_lexed;
    Alcotest.(check int) "cold run parses every unit it reads" 0 obs.a_forced;
    List.iter
      (fun (k, n) -> Alcotest.(check bool) ("cold run counts " ^ k) true (n > 0))
      obs.a_work

(* Warm from the store the cold jobs=1 run filled: oracle bytes, no
   recomputation and no write — at every jobs value.  A warm audit only
   looks up: it lexes no file, forces no deferred unit, runs no
   interproc, walks no metric and builds no CFG, so none of their work
   counters moves, and the unchanged path list is not rewritten. *)
let check_warm ~jobs =
  let name = Printf.sprintf "warm jobs=%d" jobs in
  let obs = audit_obs ~jobs ~cache:(Some (Lazy.force audit_store)) () in
  check_matches_oracle ~name obs;
  Alcotest.(check bool) (name ^ " lexes no file") false obs.a_lexed;
  Alcotest.(check int) (name ^ " forces no unit") 0 obs.a_forced;
  List.iter
    (fun (k, n) -> Alcotest.(check int) (name ^ " counts no " ^ k) 0 n)
    obs.a_work;
  match obs.a_stats with
  | None -> Alcotest.fail "no cache stats"
  | Some d ->
    Alcotest.(check int) (name ^ " recomputes nothing") 0 d.Cache.misses;
    Alcotest.(check bool) (name ^ " answers from the store") true
      (d.Cache.hits > 0);
    Alcotest.(check int) (name ^ " stores nothing") 0 d.Cache.stores

let test_audit_warm_jobs1 () = check_warm ~jobs:1
let test_audit_warm_jobs2 () = check_warm ~jobs:2
let test_audit_warm_jobs8 () = check_warm ~jobs:8

(* A rule artifact stores its journal findings with their ids, and a hit
   journals them as stored.  Marking every stored MISRA id shows it: a
   warm audit over the marked store, at every jobs value, journals only
   marked MISRA ids, as many as the oracle journals, so no id was
   computed for a cached violation. *)
let test_audit_warm_replays_ids () =
  let dir = fresh_dir "adcheck-replay" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  ignore (audit_obs ~jobs:1 ~cache:(Some c) ());
  let misra_arts =
    List.filter (fun f -> String.starts_with ~prefix:"misra-" f) (artifact_files dir)
  in
  Alcotest.(check int) "one artifact per rule" (List.length Misra.Registry.all_rules)
    (List.length misra_arts);
  List.iter
    (fun f ->
      let key = String.sub f 6 (String.length f - 6 - String.length ".art") in
      match (Cache.find c ~kind:"misra" ~key : P.finding list option) with
      | Some findings ->
        Cache.store c ~kind:"misra" ~key
          (List.map (fun (x : P.finding) -> { x with P.f_id = "S" ^ x.P.f_id }) findings)
      | None -> Alcotest.fail ("unreadable rule artifact " ^ f))
    misra_arts;
  let misra_lines journal =
    List.filter
      (fun l -> Util.Strutil.contains_sub ~sub:{|"kind":"misra"|} l)
      (String.split_on_char '\n' journal)
  in
  let want = List.length (misra_lines (Lazy.force oracle).a_journal) in
  Alcotest.(check bool) "the oracle journals MISRA findings" true (want > 0);
  List.iter
    (fun jobs ->
      let obs = audit_obs ~jobs ~cache:(Some c) () in
      let name = Printf.sprintf "jobs=%d" jobs in
      let lines = misra_lines obs.a_journal in
      Alcotest.(check int) (name ^ ": every MISRA finding journaled") want
        (List.length lines);
      Alcotest.(check (list string)) (name ^ ": no MISRA id computed") []
        (List.filter (fun l -> not (String.starts_with ~prefix:{|{"id":"SF-|} l)) lines);
      Alcotest.(check int) (name ^ ": no unit forced") 0 obs.a_forced)
    [ 1; 2; 8 ]

(* A finding counts once, where it reaches the journal, whether it was
   computed or replayed from the store: a cold audit and warm audits at
   jobs 1, 2 and 8 read the same [provenance.findings.<kind>] counters
   as the no-cache oracle, and each equals that kind's count in the
   journal. *)
let test_audit_warm_counts_findings () =
  let dir = fresh_dir "adcheck-counted" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let o = Lazy.force oracle in
  let pairs = Alcotest.(list (pair string int)) in
  Alcotest.(check pairs) "oracle: counters == journal" o.a_journaled o.a_counted;
  List.iter
    (fun (name, jobs) ->
      let obs = audit_obs ~jobs ~cache:(Some c) () in
      Alcotest.(check pairs) (name ^ ": counters == oracle's") o.a_counted obs.a_counted;
      Alcotest.(check pairs) (name ^ ": counters == journal") obs.a_journaled obs.a_counted)
    [ ("cold", 1); ("warm jobs=1", 1); ("warm jobs=2", 2); ("warm jobs=8", 8) ]

(* ------------------------------------------------------------------ *)
(* Incremental: one edit, exact recompute set, oracle equality         *)
(* ------------------------------------------------------------------ *)

let base_project = lazy (Corpus.Generator.generate ~seed:diff_seed trimmed_specs)

let edit_file (p : Cfront.Project.t) path =
  { p with
    Cfront.Project.p_modules =
      List.map
        (fun (m : Cfront.Project.modul) ->
          { m with
            Cfront.Project.m_files =
              List.map
                (fun (f : Cfront.Project.source_file) ->
                  if f.Cfront.Project.path = path then
                    { f with
                      Cfront.Project.content =
                        f.Cfront.Project.content
                        ^ "\nint cache_diff_probe() { return 42; }\n" }
                  else f)
                m.Cfront.Project.m_files })
        p.Cfront.Project.p_modules }

let test_audit_incremental_edit () =
  let project = Lazy.force base_project in
  (* the first non-header file of the corpus is the edit target *)
  let target =
    match
      List.find_opt
        (fun (f : Cfront.Project.source_file) -> not f.Cfront.Project.header)
        (Cfront.Project.all_files project)
    with
    | Some f -> f.Cfront.Project.path
    | None -> Alcotest.fail "corpus has no implementation files"
  in
  let edited = edit_file project target in
  (* populate the store from the ORIGINAL tree, then audit the edit *)
  let dir = fresh_dir "adcheck-incr" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let cold = audit_obs ~jobs:1 ~project ~cache:(Some c) () in
  let arts_cold = artifact_files dir in
  let incr = audit_obs ~jobs:1 ~project:edited ~cache:(Some c) () in
  let arts_new =
    List.filter (fun f -> not (List.mem f arts_cold)) (artifact_files dir)
  in
  let edit_oracle = audit_obs ~jobs:1 ~project:edited ~cache:None () in
  Alcotest.(check string) "incremental report == edited-tree oracle"
    edit_oracle.a_report incr.a_report;
  Alcotest.(check string) "incremental journal == edited-tree oracle"
    edit_oracle.a_journal incr.a_journal;
  Alcotest.(check (list string)) "incremental finding ids == oracle"
    edit_oracle.a_ids incr.a_ids;
  (match (cold.a_stats, incr.a_stats) with
   | Some dc, Some di ->
     Alcotest.(check bool)
       (Printf.sprintf
          "incremental recomputes measurably less (%d misses vs %d cold)"
          di.Cache.misses dc.Cache.misses)
       true
       (di.Cache.misses > 0 && di.Cache.misses < dc.Cache.misses);
     Alcotest.(check bool) "incremental run stays mostly warm" true
       (di.Cache.hits > 0);
     Alcotest.(check int) "incremental run stores exactly what it recomputes"
       di.Cache.misses di.Cache.stores
   | _ -> Alcotest.fail "missing cache stats");
  (* The edited file is lexed and parsed at once.  Its edit misses the
     interproc summary, the rules and the metric record, which read
     every unit, so each other unit is forced from the store, once. *)
  Alcotest.(check int) "cold run forces no unit" 0 cold.a_forced;
  Alcotest.(check int) "the edit forces every unit but the edited one"
    (Cfront.Project.file_count edited - 1) incr.a_forced;
  (* artifact-level accounting: the edit recomputes exactly one parse
     and one dataflow artifact (the edited file; its dependents' keys
     are content-addressed and unchanged), the whole coverage layer
     stays warm, and only the whole-tree-keyed MISRA layer re-runs *)
  let count_kind prefix =
    List.length
      (List.filter
         (fun f ->
           String.length f >= String.length prefix
           && String.sub f 0 (String.length prefix) = prefix)
         arts_new)
  in
  Alcotest.(check int) "one new parse artifact (the edited file)" 1
    (count_kind "parse-");
  Alcotest.(check int) "one new dataflow artifact (the edited file)" 1
    (count_kind "dataflow-");
  Alcotest.(check int) "coverage phases stay warm across a corpus edit" 0
    (count_kind "covphase-");
  Alcotest.(check bool) "whole-tree MISRA layer recomputes" true
    (count_kind "misra-" > 0);
  (* the same edited tree at jobs=8 against the now-twice-written store *)
  check_matches_oracle_against ~name:"incremental jobs=8" edit_oracle
    (audit_obs ~jobs:8 ~project:edited ~cache:(Some c) ())

(* The tree key covers module names.  Moving the first module's last
   file to the front of the second keeps every path, every byte and the
   file order, so the content key (and with it every MISRA rule, parse,
   type-name and dataflow artifact) is unchanged; only the interproc
   summary (each function's module) and the metric record (per-module
   figures) differ.  Against a store filled from the unmoved tree, the
   moved tree must miss exactly those two and still match its own
   no-cache oracle. *)
let test_audit_module_move () =
  let project = Lazy.force base_project in
  let moved =
    match project.Cfront.Project.p_modules with
    | m1 :: m2 :: rest ->
      let keep, last =
        match List.rev m1.Cfront.Project.m_files with
        | last :: keep -> (List.rev keep, last)
        | [] -> Alcotest.fail "first module has no files"
      in
      let last = { last with Cfront.Project.modname = m2.Cfront.Project.m_name } in
      { project with
        Cfront.Project.p_modules =
          { m1 with Cfront.Project.m_files = keep }
          :: { m2 with Cfront.Project.m_files = last :: m2.Cfront.Project.m_files }
          :: rest }
    | _ -> Alcotest.fail "corpus has fewer than two modules"
  in
  let view p =
    List.map
      (fun (f : Cfront.Project.source_file) -> (f.Cfront.Project.path, f.Cfront.Project.content))
      (Cfront.Project.all_files p)
  in
  Alcotest.(check bool) "same paths, bytes and order" true (view project = view moved);
  let dir = fresh_dir "adcheck-move" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.open_dir dir in
  let before = audit_obs ~jobs:1 ~project ~cache:(Some c) () in
  let arts_before = artifact_files dir in
  let obs = audit_obs ~jobs:1 ~project:moved ~cache:(Some c) () in
  let oracle = audit_obs ~jobs:1 ~project:moved ~cache:None () in
  check_matches_oracle_against ~name:"moved module" oracle obs;
  Alcotest.(check bool) "the move changes the report" true
    (before.a_report <> obs.a_report);
  Alcotest.(check (list string)) "new artifacts: one interproc, one metric record"
    [ "interproc"; "metrics" ]
    (List.filter_map
       (fun f ->
         if List.mem f arts_before then None
         else Some (String.sub f 0 (String.index f '-')))
       (artifact_files dir));
  (* no file is lexed; interproc and the metric walk read every unit *)
  Alcotest.(check int) "the move forces every unit" (Cfront.Project.file_count moved)
    obs.a_forced;
  match obs.a_stats with
  | Some d -> Alcotest.(check int) "exactly the two whole-tree artifacts miss" 2 d.Cache.misses
  | None -> Alcotest.fail "no cache stats"

(* A damaged store slows the audit down but cannot change it: truncate
   or scribble over half the artifacts, then re-run warm. *)
let test_audit_corrupted_store () =
  let dir = Lazy.force audit_dir in
  let arts = artifact_files dir in
  Alcotest.(check bool) "store is populated" true (arts <> []);
  List.iteri
    (fun i f ->
      let path = Filename.concat dir f in
      if i mod 2 = 0 then
        write_file path
          (let s = read_file path in
           String.sub s 0 (String.length s / 3))
      else if i mod 4 = 1 then
        write_file path (String.make 64 '\xff'))
    arts;
  let obs = audit_obs ~jobs:1 ~cache:(Some (Lazy.force audit_store)) () in
  check_matches_oracle ~name:"corrupted store jobs=1" obs;
  match obs.a_stats with
  | None -> Alcotest.fail "no cache stats"
  | Some d ->
    Alcotest.(check bool) "corruption detected and counted" true
      (d.Cache.corrupt > 0);
    Alcotest.(check bool) "corrupt artifacts recomputed" true
      (d.Cache.misses >= d.Cache.corrupt)

(* ------------------------------------------------------------------ *)
(* The real binary: misra --cache differential and adcheck serve       *)
(* ------------------------------------------------------------------ *)

let adcheck_exe = Fixture.adcheck_exe

let run_capture cmd =
  let out = Filename.temp_file "adcheck-out" ".txt" in
  let err = Filename.temp_file "adcheck-err" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out with Sys_error _ -> ());
      try Sys.remove err with Sys_error _ -> ())
  @@ fun () ->
  let rc =
    Sys.command
      (Printf.sprintf "%s > %s 2> %s" cmd (Filename.quote out)
         (Filename.quote err))
  in
  (rc, read_file out, read_file err)

let test_cli_misra_cache_diff () =
  let dir = fresh_dir "cli-cache" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let base =
    Printf.sprintf "%s misra --scale small --seed 7" (Filename.quote adcheck_exe)
  in
  let cached = Printf.sprintf "%s --cache %s" base (Filename.quote dir) in
  let rc0, oracle_out, _ = run_capture base in
  Alcotest.(check int) "oracle run exits 0" 0 rc0;
  let rc1, cold_out, _ = run_capture cached in
  Alcotest.(check int) "cold cached run exits 0" 0 rc1;
  Alcotest.(check string) "cold cached stdout == cacheless stdout" oracle_out
    cold_out;
  (* --verbose so the Log.info cache summary reaches stderr *)
  let rc2, warm_out, warm_err = run_capture (cached ^ " --verbose") in
  Alcotest.(check int) "warm run exits 0" 0 rc2;
  Alcotest.(check string) "warm stdout == cacheless stdout" oracle_out warm_out;
  Alcotest.(check bool) "warm run logs its cache summary" true
    (Util.Strutil.contains_sub ~sub:"cache " warm_err);
  (* scribble over every artifact: the next run must detect, recompute,
     and still match — the PR-8 policy test, for cache damage *)
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let s = read_file path in
      write_file path (String.sub s 0 (min 24 (String.length s))))
    (artifact_files dir);
  let rc3, corrupt_out, corrupt_err = run_capture cached in
  Alcotest.(check int) "corrupted-store run exits 0" 0 rc3;
  Alcotest.(check string) "corrupted-store stdout == cacheless stdout"
    oracle_out corrupt_out;
  Alcotest.(check bool) "corruption is logged" true
    (Util.Strutil.contains_sub ~sub:"corrupt" corrupt_err)

(* Two audit processes -- two, no more -- fill one empty store at the
   same time.  A writer's temp name carries its process id, so neither
   renames the other's half-written artifact into place: both print the
   cacheless report, a third run then finds every artifact (no miss),
   and no temp file is left in the store. *)
let test_cli_two_processes_share_store () =
  let dir = fresh_dir "cli-shared" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let base =
    Printf.sprintf "%s audit --scale small --seed 7" (Filename.quote adcheck_exe)
  in
  let cached = Printf.sprintf "%s --cache %s" base (Filename.quote dir) in
  let rc0, oracle_out, _ = run_capture base in
  Alcotest.(check int) "oracle run exits 0" 0 rc0;
  let tmp what = Filename.temp_file ("adcheck-shared-" ^ what) ".txt" in
  let out1 = tmp "out1" and out2 = tmp "out2" in
  let rc1 = tmp "rc1" and rc2 = tmp "rc2" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out1; out2; rc1; rc2 ])
  @@ fun () ->
  let writer out rc =
    Printf.sprintf "(%s > %s 2>/dev/null; echo $? > %s)" cached (Filename.quote out)
      (Filename.quote rc)
  in
  let rc =
    Sys.command (Printf.sprintf "%s & %s & wait" (writer out1 rc1) (writer out2 rc2))
  in
  Alcotest.(check int) "both writers ran" 0 rc;
  List.iter
    (fun (name, out, rc) ->
      Alcotest.(check string) (name ^ " exits 0") "0" (String.trim (read_file rc));
      Alcotest.(check string) (name ^ " stdout == cacheless stdout") oracle_out
        (read_file out))
    [ ("first writer", out1, rc1); ("second writer", out2, rc2) ];
  let rc3, warm_out, warm_err = run_capture (cached ^ " --verbose") in
  Alcotest.(check int) "warm run exits 0" 0 rc3;
  Alcotest.(check string) "warm stdout == cacheless stdout" oracle_out warm_out;
  Alcotest.(check bool) "warm run misses nothing" true
    (Util.Strutil.contains_sub ~sub:" 0 miss(es)," warm_err);
  Alcotest.(check (list string)) "no temp file left" []
    (List.filter
       (fun f -> Util.Strutil.contains_sub ~sub:".art.tmp." f)
       (Array.to_list (Sys.readdir dir)))

let test_cli_cache_open_failure () =
  (* a path under /dev/null can never be created, even running as root *)
  let rc, _, err =
    run_capture
      (Printf.sprintf "%s misra --scale small --seed 7 --cache %s"
         (Filename.quote adcheck_exe)
         (Filename.quote "/dev/null/cache"))
  in
  Alcotest.(check int) "unopenable cache dir exits 1" 1 rc;
  Alcotest.(check bool) "error names the cache directory" true
    (Util.Strutil.contains_sub ~sub:"cannot open cache directory" err)

let test_cli_serve_protocol () =
  let dir = fresh_dir "cli-serve" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let rc, out, _ =
    run_capture
      (Printf.sprintf
         "printf 'ping\\nstats\\nbogus\\naudit seed=7 seed=8\\nping\\nquit\\n' | %s serve --cache %s"
         (Filename.quote adcheck_exe) (Filename.quote dir))
  in
  Alcotest.(check int) "serve session exits 0" 0 rc;
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  (match lines with
   | greeting :: _ ->
     Alcotest.(check string) "greeting names the protocol"
       "adcheck-serve/1 ready" greeting
   | [] -> Alcotest.fail "serve printed nothing");
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  in
  Alcotest.(check bool) "ping answered" true (has "pong");
  Alcotest.(check bool) "stats line carries counters" true (has "stats hits=");
  Alcotest.(check bool) "unknown command rejected in-band" true (has "err ");
  (* a repeated key is a diagnostic, not a silent override, and the
     session keeps serving *)
  Alcotest.(check (list string)) "transcript, stats line aside"
    [ "adcheck-serve/1 ready"; "pong"; "err unknown command \"bogus\"";
      "err duplicate argument \"seed=8\""; "pong"; "bye" ]
    (List.filter (fun l -> not (String.starts_with ~prefix:"stats " l)) lines);
  Alcotest.(check bool) "quit acknowledged" true (has "bye")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cache-diff"
    [
      ( "store",
        [
          Alcotest.test_case "roundtrip, keys, memo" `Quick test_store_roundtrip;
          Alcotest.test_case "truncated artifact recovers" `Quick
            test_corrupt_truncated;
          Alcotest.test_case "garbage artifact recovers" `Quick
            test_corrupt_garbage;
          Alcotest.test_case "foreign salt recovers" `Quick
            test_corrupt_salt_mismatch;
          Alcotest.test_case "extended artifact recovers" `Quick
            test_corrupt_extended;
          Alcotest.test_case "flipped bit recovers" `Quick
            test_corrupt_flipped_bit;
          Alcotest.test_case "small read after large" `Quick
            test_small_after_large;
          Alcotest.test_case "hits from 2 and 8 domains" `Quick
            test_parallel_hits;
          Alcotest.test_case "owner-scoped removal" `Quick test_remove_owned;
          Alcotest.test_case "version mismatch wipes the store" `Quick
            test_version_salt_wipe;
          Alcotest.test_case "null store misses and writes nothing" `Quick
            test_null_store;
        ] );
      ("manifest", [ Alcotest.test_case "path-list sweep" `Quick test_sweep ]);
      ( "deferred",
        [
          Alcotest.test_case "one force from 4 domains" `Quick
            test_deferred_force_from_domains;
          Alcotest.test_case "gone artifact parses afresh" `Quick
            test_deferred_artifact_gone;
        ] );
      ( "edits",
        [
          Alcotest.test_case "revert every file restores hits" `Quick
            test_revert_restores_hits;
          Alcotest.test_case "warm misra builds no rule context" `Quick
            test_warm_misra_builds_no_context;
          QCheck_alcotest.to_alcotest prop_edit_sequence_converges;
          QCheck_alcotest.to_alcotest prop_revert_is_warm;
        ] );
      ( "audit",
        [
          Alcotest.test_case "cold with cache == oracle" `Slow
            test_audit_cold_with_cache;
          Alcotest.test_case "warm jobs=1 == oracle, zero misses" `Slow
            test_audit_warm_jobs1;
          Alcotest.test_case "warm jobs=2 == oracle" `Slow
            test_audit_warm_jobs2;
          Alcotest.test_case "warm jobs=8 == oracle" `Slow
            test_audit_warm_jobs8;
          Alcotest.test_case "warm replays stored finding ids" `Slow
            test_audit_warm_replays_ids;
          Alcotest.test_case "warm counts findings as cold" `Slow
            test_audit_warm_counts_findings;
          Alcotest.test_case "incremental edit == oracle, exact set" `Slow
            test_audit_incremental_edit;
          Alcotest.test_case "module move misses interproc and metrics" `Slow
            test_audit_module_move;
          Alcotest.test_case "corrupted store == oracle" `Slow
            test_audit_corrupted_store;
        ] );
      ( "cli",
        [
          Alcotest.test_case "misra cold/warm/corrupt == cacheless" `Slow
            test_cli_misra_cache_diff;
          Alcotest.test_case "two processes share one store" `Slow
            test_cli_two_processes_share_store;
          Alcotest.test_case "unopenable cache dir fails fast" `Quick
            test_cli_cache_open_failure;
          Alcotest.test_case "serve line protocol" `Slow
            test_cli_serve_protocol;
        ] );
    ]
