(* One workload in one process: set up its inputs, send its requests one
   at a time (a single closed-loop client, no think time), check every
   request, and print the metrics.

   The untraced pass measures the end-to-end metrics: each request is
   [Audit.run] + [Audit.render], exactly what [adcheck audit] and
   [adcheck serve] do per request.  The traced pass measures the layers:
   each request calls the layers' public entry points in the jobs=1
   audit order, inside spans the ledger keeps itself. *)

module Audit = Iso26262.Audit
module PM = Iso26262.Project_metrics

let now = Unix.gettimeofday

let specs_of = function
  | Spec.Small -> Corpus.Apollo_profile.small
  | Spec.Full -> Corpus.Apollo_profile.full

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec disk_bytes path =
  match Sys.is_directory path with
  | true ->
    Array.fold_left (fun acc f -> acc + disk_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

(* VmHWM: the process's resident-set high-water mark. *)
let peak_rss_mb () =
  let from_status line =
    Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines -> (
    match List.find_map from_status lines with
    | Some mb -> mb
    | None -> failwith "no VmHWM line in /proc/self/status")
  | exception Sys_error e -> failwith ("peak RSS unavailable: " ^ e)

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---- spans ----------------------------------------------------------- *)

type span = {
  s_name : string;
  s_req : int;  (** request index; -1 for set-up *)
  s_parent : string;
  s_start : float;
  s_stop : float;
  s_alloc_w : float;
}

let spans : span list ref = ref []

let span ~req ~parent name f =
  let a0 = allocated_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  spans :=
    { s_name = name; s_req = req; s_parent = parent; s_start = t0; s_stop = t1;
      s_alloc_w = allocated_words () -. a0 }
    :: !spans;
  r

let write_chrome_trace path =
  let t_base = List.fold_left (fun acc s -> Float.min acc s.s_start) infinity !spans in
  let event s =
    Record.obj
      [ ("name", Record.str s.s_name); ("cat", Record.str "ledger"); ("ph", Record.str "X");
        ("ts", Printf.sprintf "%.1f" ((s.s_start -. t_base) *. 1e6));
        ("dur", Printf.sprintf "%.1f" ((s.s_stop -. s.s_start) *. 1e6));
        ("pid", "1"); ("tid", "1");
        ("args",
         Record.obj
           [ ("request", string_of_int s.s_req); ("parent", Record.str s.s_parent);
             ("alloc_mw", Printf.sprintf "%.3f" (s.s_alloc_w /. 1e6)) ]) ]
  in
  let sorted = List.sort (fun a b -> compare a.s_start b.s_start) !spans in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\": [\n";
      output_string oc (String.concat ",\n" (List.map event sorted));
      output_string oc "\n]}\n")

(* ---- inputs ------------------------------------------------------------ *)

type inputs = {
  base : Cfront.Project.t;
  ratios : (string * float) list;  (** Observation 12, as the CLI passes them *)
  store : Cache.t option;
  edit_files : string list;  (** non-header paths an edit may touch *)
}

let gpu_ratios () =
  let device = Gpuperf.Device.titan_v in
  Gpuperf.Suites.gemm_comparison ~device
  @ List.map (fun (l, _, r) -> (l, r)) (Gpuperf.Suites.conv_comparison ~device)

let audit ~seed inputs project =
  Audit.run ~seed ~project ~open_vs_closed:inputs.ratios ()

(* The store fill runs in a forked child, so that the workload process
   never holds the fill audit's heap: its peak RSS is that of its own
   requests.  (At --jobs 1 the process has no other domain to fork.) *)
let fill_in_child ~seed inputs ~store_dir =
  match Unix.fork () with
  | 0 ->
    let code =
      match
        Cache.with_global (Cache.open_dir store_dir) (fun () -> ignore (audit ~seed inputs inputs.base))
      with
      | () -> 0
      | exception e ->
        prerr_endline ("store fill raised: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "the store fill failed")

(* Corpus generation and, for the cached workloads, the store fill: a
   first audit of the base tree writes every artifact. *)
let setup (w : Spec.workload) ~scale ~seed ~store_dir =
  let base =
    span ~req:(-1) ~parent:"setup" "corpus.generate" (fun () ->
        Corpus.Generator.generate ~seed (specs_of scale))
  in
  let ratios = gpu_ratios () in
  let inputs0 =
    { base; ratios; store = None;
      edit_files =
        List.filter_map
          (fun (f : Cfront.Project.source_file) ->
            if f.Cfront.Project.header then None else Some f.Cfront.Project.path)
          (Cfront.Project.all_files base) }
  in
  match w.Spec.w_mode with
  | Spec.Cold -> inputs0
  | Spec.Warm | Spec.Edit ->
    span ~req:(-1) ~parent:"setup" "cache.fill" (fun () -> fill_in_child ~seed inputs0 ~store_dir);
    { inputs0 with store = Some (Cache.open_dir store_dir) }

let append_probe (p : Cfront.Project.t) ~path i =
  let probe = Printf.sprintf "\nint bench_edit_probe_%d() { return %d; }\n" i i in
  { p with
    Cfront.Project.p_modules =
      List.map
        (fun (m : Cfront.Project.modul) ->
          { m with
            Cfront.Project.m_files =
              List.map
                (fun (f : Cfront.Project.source_file) ->
                  if f.Cfront.Project.path = path then
                    { f with Cfront.Project.content = f.Cfront.Project.content ^ probe }
                  else f)
                m.Cfront.Project.m_files })
        p.Cfront.Project.p_modules }

(* The tree request [i] audits, its key and the edited path: cold and
   warm requests share the base tree (key 0); edit request [i] appends
   probe [i] to a file drawn from the seeded stream (key [i]). *)
let tree (w : Spec.workload) inputs rng i =
  match w.Spec.w_mode with
  | Spec.Cold | Spec.Warm -> (inputs.base, 0, "")
  | Spec.Edit ->
    let path = Util.Rng.pick rng inputs.edit_files in
    (append_probe inputs.base ~path i, i, path)

let cache_counts inputs =
  match inputs.store with
  | None -> (0, 0)
  | Some c ->
    let s = Cache.stats c in
    (s.Cache.hits, s.Cache.misses)

(* The oracle of one tree: a no-cache audit, as the cold jobs=1 run is
   the repository's reference for every cached path. *)
let oracle ~seed inputs project =
  Cache.set_global None;
  let a = audit ~seed inputs project in
  Cache.set_global inputs.store;
  a

let median = Util.Stats.median

(* The highest percentile with at least ten samples beyond it. *)
let tail samples =
  let n = List.length samples in
  List.find_map
    (fun p ->
      let rank = int_of_float (ceil (float_of_int p /. 100.0 *. float_of_int n)) in
      if n - rank >= 10 then Some (p, Util.Stats.percentile (float_of_int p) samples) else None)
    [ 99; 90; 75; 50 ]

type budget = Requests of int | Seconds of float

let more budget ~started i =
  match budget with
  | Requests n -> i < n
  | Seconds s -> i = 0 || now () -. started < s

let value ?(note = "") name v =
  match Spec.find_metric name with
  | Some m -> (name, { Record.v; unit_ = m.Spec.unit_; note })
  | None -> invalid_arg ("metric not in the catalogue: " ^ name)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- untraced pass --------------------------------------------------- *)

type sample = {
  key : int;
  edit_path : string;
  digest : Digest.t;
  observations : Iso26262.Observations.t list;
}

(* Each request is timed raw and relative to the probe time measured
   just before and just after it.  Each side probes for a tenth of the
   request's time (a quarter second before the first request).  Peak RSS
   is read after the first request: the heap keeps growing over the next
   one or two, and how many requests fit in the run depends on the
   machine's speed at the time. *)
let untraced (w : Spec.workload) ~seed ~budget ~probe inputs =
  let rng = Util.Rng.create seed in
  let walls = ref [] and rels = ref [] and probes = ref [] in
  let samples = ref [] and raised = ref 0 and kloc = ref 0.0 and peak = ref 0.0 in
  let started = now () in
  let before = ref (Probe.mean probe ~span:0.25) in
  let i = ref 0 in
  while more budget ~started !i do
    let project, key, edit_path = tree w inputs rng !i in
    let t0 = now () in
    let outcome =
      match
        let a = audit ~seed inputs project in
        (a, Audit.render a)
      with
      | r -> Ok r
      | exception e -> Error e
    in
    let wall = now () -. t0 in
    let after = Probe.mean probe ~span:(wall /. 10.0) in
    walls := wall :: !walls;
    rels := (wall /. ((!before +. after) /. 2.0)) :: !rels;
    probes := after :: !probes;
    before := after;
    if !i = 0 then peak := peak_rss_mb ();
    (match outcome with
     | Ok (a, report) ->
       if !kloc = 0.0 then kloc := float_of_int a.Audit.metrics.PM.total_loc /. 1000.0;
       samples :=
         { key; edit_path; digest = Digest.string report; observations = a.Audit.observations }
         :: !samples
     | Error e ->
       incr raised;
       Printf.eprintf "request %d raised: %s\n%!" !i (Printexc.to_string e));
    incr i
  done;
  let samples = List.rev !samples in
  (* Oracles: a cold run's first report; a no-cache audit of the warm
     tree; no-cache audits of three seeded edit requests. *)
  let oracles =
    match (w.Spec.w_mode, samples) with
    | _, [] -> []
    | Spec.Cold, s :: _ -> [ (s.key, s.digest) ]
    | Spec.Warm, _ ->
      [ (0, Digest.string (Audit.render (oracle ~seed inputs inputs.base))) ]
    | Spec.Edit, _ ->
      let picked =
        List.filteri (fun j _ -> j < 3) (Util.Rng.shuffle (Util.Rng.create (seed + 1)) samples)
      in
      List.map
        (fun s ->
          let project = append_probe inputs.base ~path:s.edit_path s.key in
          (s.key, Digest.string (Audit.render (oracle ~seed inputs project))))
        picked
  in
  let failed =
    !raised
    + List.length
        (List.filter
           (fun s ->
             match Check.request ?oracle:(List.assoc_opt s.key oracles) ~report:s.digest s.observations with
             | Check.Passed -> false
             | Check.Failed why ->
               Printf.eprintf "request with tree %d failed: %s\n%!" s.key why;
               true)
           samples)
  in
  let attempted = !i in
  let walls = !walls in
  let p50 = median walls in
  let metrics =
    [ value "audit_p50_rel" (median !rels);
      value "peak_rss_mb" !peak;
      value "audit_p50_s" p50;
      value "kloc_per_s" (ratio !kloc p50);
      value "probe_ms" (1e3 *. median !probes) ]
    @ (match tail walls with
       | Some (p, x) -> [ value ~note:(Printf.sprintf "p%d" p) "audit_tail_s" x ]
       | None -> [])
    @ [ value "failed_frac" (ratio (float_of_int failed) (float_of_int attempted));
        value "requests" (float_of_int attempted) ]
  in
  { Record.correct = failed = 0 && oracles <> []; attempted; failed; metrics }

(* ---- traced pass ----------------------------------------------------- *)

(* Work counts the layers do not return are read from the flight
   recorder, switched on around that one call. *)
let counted counter f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  let r = f () in
  (r, Telemetry.counter counter)

let coverage_ok = function Ok _ -> () | Error e -> failwith ("coverage scenario failed: " ^ e)

(* The statements both coverage phases interpret.  The recorder's
   interpreter hooks cost a counter update and a string per statement,
   so this untimed call counts them once per pass (the embedded YOLO and
   stencil sources make the count the same on every request) and the
   timed calls run with the recorder off. *)
let coverage_stmts () =
  let (_, _, y_exit), y = counted "interp.stmts" Audit.run_yolo_coverage in
  let (_, s_exit), s = counted "interp.stmts" Audit.run_stencil_coverage in
  coverage_ok y_exit;
  coverage_ok s_exit;
  y + s

type traced = {
  t_audit : Audit.t;
  t_transfers : int;
}

(* One request assembled from the layers.  On the cached workloads the
   two coverage phases are store hits inside [Audit.run] (the embedded
   YOLO and stencil sources never change), while their public entry
   points are uncached; the request then takes the coverage results of
   [served], an untraced audit, and records no coverage span.

   [Project_metrics.of_parsed_with] runs interproc itself, and no public
   entry point takes a precomputed summary, so interproc runs twice: once
   alone, timed as its own layer, with its findings discarded so that the
   journal holds each once, and again inside the core-metrics span. *)
let traced_request ~req ?served inputs project =
  let layer name f = span ~req ~parent:"request" name f in
  span ~req ~parent:"" "request" @@ fun () ->
  Provenance.reset ();
  let parsed = layer "cfront.parse" (fun () -> Cfront.Project.parse project) in
  let module_dataflow, transfers =
    layer "dataflow.solve" (fun () ->
        counted "dataflow.transfers" (fun () -> PM.module_dataflow_of_parsed parsed))
  in
  let misra = layer "misra.run" (fun () -> PM.misra_of_parsed parsed) in
  ignore
    (layer "interproc.analyze" (fun () ->
         Provenance.collect (fun () -> Interproc.Summary.analyze parsed)));
  let metrics =
    layer "metrics.of_parsed_with" (fun () ->
        PM.of_parsed_with ~misra:(fun () -> misra) ~module_dataflow parsed)
  in
  let yolo_coverage, yolo_run_output, stencil_coverage =
    match served with
    | Some (a : Audit.t) -> (a.Audit.yolo_coverage, a.Audit.yolo_run_output, a.Audit.stencil_coverage)
    | None ->
      let yolo, out, y_exit = layer "coverage.yolo" Audit.run_yolo_coverage in
      let stencil, s_exit = layer "coverage.stencil" Audit.run_stencil_coverage in
      coverage_ok y_exit;
      coverage_ok s_exit;
      (yolo, out, stencil)
  in
  let coding, architecture, unit_design, observations =
    layer "iso26262.assess" (fun () ->
        ( Iso26262.Assess.assess_coding metrics,
          Iso26262.Assess.assess_architecture metrics,
          Iso26262.Assess.assess_unit_design metrics,
          Iso26262.Observations.of_metrics metrics ~yolo_coverage ~stencil_coverage
            ~open_vs_closed:inputs.ratios ))
  in
  let journal = layer "provenance.journal" Provenance.findings in
  let t_audit =
    { Audit.parsed; metrics; coding; architecture; unit_design; yolo_coverage; yolo_run_output;
      stencil_coverage; observations; journal }
  in
  ignore (layer "iso26262.render" (fun () -> Audit.render t_audit));
  { t_audit; t_transfers = transfers }

(* A traced request is correct when its observations hold and, rendered
   with the evidence journal of an untraced audit of the same tree, it
   reproduces that audit's report byte for byte.  (Only [Audit.run]
   journals the metric verdicts, so the journal has to come from it.) *)
let check_traced t (reference : Audit.t) ~reference_report =
  Check.request
    ~oracle:(Digest.string reference_report)
    ~report:(Digest.string (Audit.render { t.t_audit with Audit.journal = reference.Audit.journal }))
    t.t_audit.Audit.observations

(* Duration in ms and allocation in Mw of request [req]'s span [name]; 0
   for a layer the request did not run. *)
let measured ~req name =
  match List.find_opt (fun s -> s.s_req = req && s.s_name = name) !spans with
  | Some s -> (1e3 *. (s.s_stop -. s.s_start), s.s_alloc_w /. 1e6)
  | None -> (0.0, 0.0)

(* The per-layer values of one traced request, and the sum of its stage
   times in seconds.  [stmts] is the pass's coverage statement count. *)
let layer_values ~req ~corpus_kb ~stmts t =
  let ms name = fst (measured ~req name) and alloc_mw name = snd (measured ~req name) in
  let functions = float_of_int t.t_audit.Audit.metrics.PM.total_functions in
  let per_fn x = ratio (1e3 *. x) functions in
  let core = ms "metrics.of_parsed_with" -. ms "interproc.analyze" in
  let coverage = ms "coverage.yolo" +. ms "coverage.stencil" in
  let stage_sum =
    ms "cfront.parse" +. ms "dataflow.solve" +. ms "misra.run" +. ms "interproc.analyze" +. core
    +. coverage +. ms "iso26262.assess" +. ms "provenance.journal" +. ms "iso26262.render"
  in
  [ ("cfront.parse_ms", ms "cfront.parse");
    ("cfront.us_per_kb", ratio (1e3 *. ms "cfront.parse") corpus_kb);
    ("cfront.alloc_mw", alloc_mw "cfront.parse");
    ("misra.run_ms", ms "misra.run");
    ("misra.us_per_fn", per_fn (ms "misra.run"));
    ("misra.alloc_mw", alloc_mw "misra.run");
    ("misra.violations",
     float_of_int t.t_audit.Audit.metrics.PM.misra.Misra.Registry.total_violations);
    ("dataflow.solve_ms", ms "dataflow.solve");
    ("dataflow.us_per_transfer", ratio (1e3 *. ms "dataflow.solve") (float_of_int t.t_transfers));
    ("dataflow.transfers", float_of_int t.t_transfers);
    ("dataflow.alloc_mw", alloc_mw "dataflow.solve");
    ("interproc.analyze_ms", ms "interproc.analyze");
    ("interproc.us_per_fn", per_fn (ms "interproc.analyze"));
    ("interproc.alloc_mw", alloc_mw "interproc.analyze");
    ("metrics.core_ms", core);
    ("metrics.us_per_fn", per_fn core);
    ("metrics.alloc_mw", alloc_mw "metrics.of_parsed_with" -. alloc_mw "interproc.analyze");
    ("metrics.functions", functions);
    ("coverage.run_ms", coverage);
    ("coverage.us_per_stmt", ratio (1e3 *. coverage) (float_of_int stmts));
    ("coverage.stmts", float_of_int stmts);
    ("coverage.alloc_mw", alloc_mw "coverage.yolo" +. alloc_mw "coverage.stencil");
    ("iso26262.assess_ms", ms "iso26262.assess");
    ("provenance.journal_ms", ms "provenance.journal");
    ("iso26262.render_ms", ms "iso26262.render") ],
  stage_sum /. 1e3

let traced_pass (w : Spec.workload) ~seed ~budget inputs =
  let rng = Util.Rng.create seed in
  let cached = w.Spec.w_mode <> Spec.Cold in
  let started = now () in
  (* The reference: an untraced request of the workload's first tree.
     It times the request the stage sum is compared against, and gives
     the exact counts only [Audit.run] produces. *)
  let project0, _, _ = tree w inputs rng 0 in
  let h0, m0 = cache_counts inputs in
  let t0 = now () in
  let reference = span ~req:0 ~parent:"" "audit.run" (fun () -> audit ~seed inputs project0) in
  let report = span ~req:0 ~parent:"" "audit.render" (fun () -> Audit.render reference) in
  let reference_s = now () -. t0 in
  let h1, m1 = cache_counts inputs in
  let stmts = if cached then 0 else coverage_stmts () in
  let corpus_kb =
    float_of_int
      (List.fold_left
         (fun acc (f : Cfront.Project.source_file) -> acc + String.length f.Cfront.Project.content)
         0 (Cfront.Project.all_files inputs.base))
    /. 1024.0
  in
  let traced = ref [] and failed = ref 0 in
  let i = ref 1 in
  while more budget ~started (!i - 1) do
    let project, _, _ = tree w inputs rng !i in
    let served = if cached then Some reference else None in
    (match traced_request ~req:!i ?served inputs project with
     | t ->
       traced := (!i, t) :: !traced;
       (* Same-tree requests check against the reference at once; an
          edit request's tree is new, so the first one is checked
          against a no-cache audit after the loop. *)
       if w.Spec.w_mode <> Spec.Edit then
         match check_traced t reference ~reference_report:report with
         | Check.Passed -> ()
         | Check.Failed why ->
           incr failed;
           Printf.eprintf "traced request %d failed: %s\n%!" !i why
     | exception e ->
       incr failed;
       Printf.eprintf "traced request %d raised: %s\n%!" !i (Printexc.to_string e));
    incr i
  done;
  let traced = List.rev !traced in
  (match (w.Spec.w_mode, traced) with
   | Spec.Edit, (req, t) :: _ -> (
     let o = oracle ~seed inputs t.t_audit.Audit.parsed.Cfront.Project.project in
     match check_traced t o ~reference_report:(Audit.render o) with
     | Check.Passed -> ()
     | Check.Failed why ->
       incr failed;
       Printf.eprintf "traced request %d failed: %s\n%!" req why)
   | _ -> ());
  let per_request = List.map (fun (req, t) -> layer_values ~req ~corpus_kb ~stmts t) traced in
  let med name = median (List.map (fun (values, _) -> List.assoc name values) per_request) in
  let hits = float_of_int (h1 - h0) and misses = float_of_int (m1 - m0) in
  let layers =
    match per_request with
    | (values, _) :: _ -> List.map (fun (name, _) -> value name (med name)) values
    | [] -> []
  in
  let metrics =
    [ value "corpus.kloc" (float_of_int reference.Audit.metrics.PM.total_loc /. 1000.0) ]
    @ layers
    @ [ value "iso26262.report_kb" (float_of_int (String.length report) /. 1024.0);
        value "cache.hits" hits;
        value "cache.misses" misses;
        value "cache.hit_ratio" (ratio hits (hits +. misses));
        value "cache.store_mb"
          (match inputs.store with
           | Some c -> float_of_int (disk_bytes (Cache.dir c)) /. 1048576.0
           | None -> 0.0);
        value "provenance.findings" (float_of_int (List.length reference.Audit.journal));
        value "trace.residual_frac"
          (ratio (Float.abs (reference_s -. median (List.map snd per_request))) reference_s) ]
  in
  { Record.correct = !failed = 0 && traced <> []; attempted = !i - 1; failed = !failed; metrics }

(* ---- one run ------------------------------------------------------------ *)

(* The untraced pass sets up once, measures, then sets up again from
   scratch until there are at least [min_setups] set-ups and they took
   [min_setup_s] in all: the requests and the peak RSS see exactly one
   set-up, and setup_s is the median of all of them.  The speed of this
   kind of shared machine swings from one second to the next, so a 10 ms
   set-up is sampled over a few seconds, not a few hundred times within
   one.  The probe process is
   forked first, before the process holds any of the workload's data.
   The traced pass sets up once and reports that set-up's corpus
   generation. *)
let min_setups = 3
let min_setup_s = 3.0

let run (w : Spec.workload) ~scale ~seed ~budget ~trace ~work_dir =
  let store_dir = Filename.concat work_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  let probe = if trace then None else Some (Probe.start ()) in
  Fun.protect ~finally:(fun () ->
      Option.iter Probe.stop probe;
      Cache.set_global None;
      rm_rf store_dir)
  @@ fun () ->
  let setup_once () =
    rm_rf store_dir;
    span ~req:(-1) ~parent:"" "setup" (fun () -> setup w ~scale ~seed ~store_dir)
  in
  let durations name =
    List.filter_map
      (fun s -> if s.s_name = name then Some (s.s_stop -. s.s_start) else None)
      !spans
  in
  let median_ms name = 1e3 *. median (durations name) in
  let inputs = setup_once () in
  Gc.compact ();
  Cache.set_global inputs.store;
  match probe with
  | None ->
    let r = traced_pass w ~seed ~budget inputs in
    write_chrome_trace (Filename.concat work_dir (w.Spec.w_name ^ ".trace.json"));
    { r with Record.metrics = value "corpus.generate_ms" (median_ms "corpus.generate") :: r.Record.metrics }
  | Some probe ->
    let r = untraced w ~seed ~budget ~probe inputs in
    Cache.set_global None;
    Gc.compact ();
    while
      List.length (durations "setup") < min_setups || Util.Stats.sum_float (durations "setup") < min_setup_s
    do
      ignore (setup_once ())
    done;
    { r with Record.metrics = r.Record.metrics @ [ value "setup_s" (median_ms "setup" /. 1e3) ] }
