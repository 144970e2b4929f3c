(** One-pass metric extraction over a parsed project.

    Everything the assessment, the observations, and the benchmark
    harness need is computed here once; individual consumers then read
    fields instead of re-walking 220k LOC of ASTs. *)

type module_metrics = {
  modname : string;
  complexity : Metrics.Complexity.module_summary;
  loc : Metrics.Loc_metrics.counts;
  globals : int;
  multi_exit_frac : float;
  gotos : int;
  dataflow : Dataflow.Analyses.totals;
}

type t = {
  modules : module_metrics list;
  total_loc : int;
  total_functions : int;
  over10 : int;
  over20 : int;
  over50 : int;
  explicit_casts : int;
  implicit_conversions : int;
  globals_total : int;
  uninit_findings : Metrics.Uninit.finding list;
  shadowing_count : int;
  duplicate_globals : int;
  gotos_total : int;
  recursive_functions : string list;
  dyn_alloc_sites : int;
  pointer_usage : Metrics.Pointers.usage;
  multi_exit_frac : float;
  param_validation_ratio : float;
  ignored_returns : int;
  assertions : int;
  style_findings : int;
  style_per_kloc : float;
  naming_violations : int;
  architecture : Metrics.Architecture.component list;
  namespace_depth : int;
  cuda : Cudasim.Census.t;
  misra : Misra.Registry.report;
  dataflow : Dataflow.Analyses.totals;
  interproc : Interproc.Summary.t;
}

(* ------------------------------------------------------------------ *)
(* Separable phases                                                     *)
(* ------------------------------------------------------------------ *)

(* The MISRA pass and the per-module dataflow totals are the two
   heavyweight consumers of the parsed project that nothing else in this
   record depends on.  They are exposed as standalone functions so the
   pipelined audit can run MISRA on a pool worker concurrently with the
   core metric walk.  Both read the facts of the audit's one rule
   context.  The context-less forms below exist because the ledger's
   traced layers time each phase on its own (bench/ledger/run.ml). *)

let misra_of_parsed ?context parsed = Misra.Registry.run_project ?context parsed

let module_dataflow (parsed : Cfront.Project.parsed) facts =
  let module A = Dataflow.Analyses in
  let by_module = Hashtbl.create 16 in
  let totals m = Option.value ~default:A.zero_totals (Hashtbl.find_opt by_module m) in
  List.iter2
    (fun (pf : Cfront.Project.parsed_file) (_, xs) ->
      let m = pf.Cfront.Project.file.Cfront.Project.modname in
      Hashtbl.replace by_module m
        (A.add_totals (totals m) (A.totals_of (List.map A.summary_of_facts xs))))
    parsed.Cfront.Project.files facts;
  List.map
    (fun m -> (m, totals m))
    (Cfront.Project.module_names parsed.Cfront.Project.project)

let module_dataflow_of_parsed parsed =
  module_dataflow parsed (Dataflow.Analyses.facts_of_parsed parsed)

(* The [metrics] artifact stores the record without the two fields
   that have artifacts of their own: the MISRA report (per-rule
   artifacts, and its rules hold closures) and the interproc summary
   (the [interproc] artifact).  These stand in for them. *)
let no_misra =
  { Misra.Registry.per_rule = []; total_violations = 0; rules_violated = 0;
    rules_checked = 0 }

let no_interproc () =
  { Interproc.Summary.graph = Cfront.Callgraph.build []; summaries = []; cycles = [];
    n_sccs = 0; n_levels = 0; max_call_depth = Finite 0; max_stack_words = Finite 0;
    coupling = []; uninit_flows = []; globals_total = 0 }

(* What the core metrics read of one file: its module, its line counts
   and style hits from one scan of its text, its CUDA census, and the
   census counts of its defined functions. *)
type file_facts = {
  ff_module : string;
  ff_file : string;
  ff_counts : Metrics.Census.counts list;
  ff_loc : Metrics.Loc_metrics.counts;
  ff_style : int;
  ff_cuda : Cudasim.Census.t;
}

(* [ctx.census] lists the defined functions file by file, so each file
   takes the next as many records as it defines functions. *)
let file_facts (ctx : Misra.Rule.context) files =
  let rec take n l acc =
    match (n, l) with
    | 0, _ -> (List.rev acc, l)
    | _, c :: rest -> take (n - 1) rest (c :: acc)
    | _, [] -> invalid_arg "Project_metrics.file_facts: census shorter than the functions"
  in
  snd
    (List.fold_left_map
       (fun rest (pf : Cfront.Project.parsed_file) ->
         let tu = Cfront.Project.tu pf in
         let defined =
           List.length
             (List.filter
                (fun f -> f.Cfront.Ast.f_body <> None)
                (Cfront.Ast.functions_of_tu tu))
         in
         let counts, rest = take defined rest [] in
         let text = Metrics.Style.scan tu.Cfront.Ast.raw_source in
         ( rest,
           {
             ff_module = pf.Cfront.Project.file.Cfront.Project.modname;
             ff_file = tu.Cfront.Ast.tu_file;
             ff_counts = counts;
             ff_loc =
               Metrics.Style.loc_counts tu text
                 ~logical:(Metrics.Census.sum (fun c -> c.Metrics.Census.logical) counts);
             ff_style = Metrics.Style.findings text;
             ff_cuda = Cudasim.Census.of_unit tu counts;
           } ))
       ctx.Misra.Rule.census files)

(* The core metrics: every field but [misra], read off [ctx].  Every
   per-function figure is a sum of the context's census counts, per
   module or over the project; the casts, dynamic allocations and
   ignored returns are the context's records, which rules 10.3, 21.3 and
   17.7 read too, and the recursive functions are those of interproc's
   cycles, which 17.2 and CUDA-5 read. *)
let core ~(ctx : Misra.Rule.context) ~module_dataflow (parsed : Cfront.Project.parsed) =
  let module C = Metrics.Census in
  let graph = ctx.Misra.Rule.interproc.Interproc.Summary.graph in
  let module_names = Cfront.Project.module_names parsed.Cfront.Project.project in
  let files = file_facts ctx parsed.Cfront.Project.files in
  let sum_loc ffs =
    List.fold_left (fun acc f -> Metrics.Loc_metrics.add acc f.ff_loc) Metrics.Loc_metrics.zero ffs
  in
  let globals_in_file = Hashtbl.create (List.length files) in
  List.iter
    (fun (g : Metrics.Globals.record) ->
      let file = g.Metrics.Globals.file in
      Hashtbl.replace globals_in_file file
        (1 + Option.value ~default:0 (Hashtbl.find_opt globals_in_file file)))
    ctx.Misra.Rule.globals;
  let by_module =
    List.map
      (fun m ->
        let ffs = List.filter (fun f -> f.ff_module = m) files in
        (m, ffs, List.concat_map (fun f -> f.ff_counts) ffs))
      module_names
  in
  let per_module =
    List.map
      (fun (m, ffs, counts) ->
        let loc = sum_loc ffs in
        {
          modname = m;
          complexity =
            Metrics.Complexity.summarize ~modname:m ~loc:loc.Metrics.Loc_metrics.physical
              (List.map (fun c -> c.C.cc) counts);
          loc;
          globals =
            Util.Stats.sum_int
              (List.map
                 (fun f -> Option.value ~default:0 (Hashtbl.find_opt globals_in_file f.ff_file))
                 ffs);
          multi_exit_frac = C.multi_exit_fraction counts;
          gotos = C.sum (fun c -> c.C.gotos) counts;
          dataflow = List.assoc m module_dataflow;
        })
      by_module
  in
  let all = ctx.Misra.Rule.census in
  let casts = ctx.Misra.Rule.casts in
  let shadowing = ctx.Misra.Rule.shadowing in
  let loc_all = sum_loc files in
  let style = Util.Stats.sum_int (List.map (fun f -> f.ff_style) files) in
  let sum f = Util.Stats.sum_int (List.map f per_module) in
  {
    modules = per_module;
    total_loc = loc_all.Metrics.Loc_metrics.physical;
    total_functions = sum (fun m -> m.complexity.Metrics.Complexity.n_functions);
    over10 = sum (fun m -> m.complexity.Metrics.Complexity.over_10);
    over20 = sum (fun m -> m.complexity.Metrics.Complexity.over_20);
    over50 = sum (fun m -> m.complexity.Metrics.Complexity.over_50);
    explicit_casts = Metrics.Casts.explicit_count casts;
    implicit_conversions = Metrics.Casts.implicit_count casts;
    globals_total = sum (fun m -> m.globals);
    uninit_findings = Metrics.Uninit.of_facts ctx.Misra.Rule.facts;
    shadowing_count =
      List.length
        (List.filter
           (fun (f : Metrics.Shadowing.finding) -> f.Metrics.Shadowing.kind <> `Duplicate_global)
           shadowing);
    duplicate_globals =
      List.length
        (List.filter
           (fun (f : Metrics.Shadowing.finding) -> f.Metrics.Shadowing.kind = `Duplicate_global)
           shadowing);
    gotos_total = sum (fun m -> m.gotos);
    recursive_functions =
      List.sort_uniq compare (List.concat ctx.Misra.Rule.interproc.Interproc.Summary.cycles);
    dyn_alloc_sites = List.length ctx.Misra.Rule.dyn_allocs;
    pointer_usage = C.pointer_usage all;
    multi_exit_frac = C.multi_exit_fraction all;
    param_validation_ratio = C.param_validation_ratio all;
    ignored_returns = List.length ctx.Misra.Rule.ignored_returns;
    assertions = C.sum (fun c -> c.C.assertions) all;
    style_findings = style;
    style_per_kloc = Metrics.Style.per_kloc style loc_all;
    naming_violations = List.length (Metrics.Naming.of_files parsed.Cfront.Project.files);
    architecture =
      Metrics.Architecture.build ~graph ~parsed
        ~modules:
          (List.map2
             (fun (m, _, counts) mm ->
               ( m,
                 { Metrics.Architecture.m_loc = mm.loc.Metrics.Loc_metrics.physical;
                   m_interrupts = List.exists (fun c -> c.C.interrupts) counts;
                   m_threads = List.exists (fun c -> c.C.threads) counts } ))
             by_module per_module);
    namespace_depth = Metrics.Architecture.namespace_depth parsed.Cfront.Project.files;
    cuda =
      List.fold_left (fun acc f -> Cudasim.Census.add acc f.ff_cuda) Cudasim.Census.zero files;
    interproc = ctx.Misra.Rule.interproc;
    misra = no_misra;
    dataflow =
      List.fold_left
        (fun t (m : module_metrics) -> Dataflow.Analyses.add_totals t m.dataflow)
        Dataflow.Analyses.zero_totals per_module;
  }

(* One whole-tree artifact, keyed like interproc on the tree key (the
   record names modules) and with no owner.  The walk journals no
   finding, so there is none to replay, and a hit counts no [metrics.*]
   work. *)
let core_key parsed = Cache.key ~kind:"metrics" [ Cfront.Project.tree_key parsed ]

let lookup_core parsed = Cache.find (Cache.global ()) ~kind:"metrics" ~key:(core_key parsed)

let assemble ?core:stored ?context ~interproc ~(misra : unit -> Misra.Registry.report)
    ~(module_dataflow : (string * Dataflow.Analyses.totals) list)
    (parsed : Cfront.Project.parsed) =
  Telemetry.with_span ~cat:"metrics" "metrics"
    ~attrs:[ ("files", string_of_int (List.length parsed.Cfront.Project.files)) ]
  @@ fun () ->
  let m =
    match stored with
    | Some m -> m
    | None ->
      let ctx =
        match context with
        | Some ctx -> ctx
        | None -> invalid_arg "Project_metrics.assemble: no stored core and no context"
      in
      let m = core ~ctx ~module_dataflow parsed in
      Cache.store (Cache.global ()) ~kind:"metrics" ~key:(core_key parsed)
        { m with interproc = no_interproc () };
      m
  in
  (* The MISRA report comes last, so a pipelined caller blocks on its
     future only here. *)
  { m with interproc; misra = misra () }

let of_parsed_with ?context ~misra ~module_dataflow parsed =
  let ctx =
    match context with Some ctx -> ctx | None -> Misra.Rule.build_context parsed
  in
  assemble ?core:(lookup_core parsed) ~context:ctx ~interproc:ctx.Misra.Rule.interproc
    ~misra ~module_dataflow parsed

let of_parsed parsed =
  let producers = Misra.Rule.producers parsed in
  let context = Misra.Rule.context_of parsed producers in
  of_parsed_with ~context
    ~misra:(fun () -> misra_of_parsed ~context parsed)
    ~module_dataflow:(module_dataflow parsed (fst producers)) parsed

let find_module t name = List.find_opt (fun m -> m.modname = name) t.modules
