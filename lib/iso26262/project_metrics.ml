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

(* The core metric walk: every field but [misra], read off [ctx]. *)
let core ~(ctx : Misra.Rule.context) ~module_dataflow (parsed : Cfront.Project.parsed) =
  let graph = ctx.Misra.Rule.interproc.Interproc.Summary.graph in
  let module_names = Cfront.Project.module_names parsed.Cfront.Project.project in
  let files = parsed.Cfront.Project.files in
  (* Each file's lines are counted once and its mutable globals are
     read off the context; the module and project figures are sums. *)
  let file_loc =
    List.map (fun pf -> (pf, Metrics.Loc_metrics.of_tu (Cfront.Project.tu pf))) files
  in
  let sum_loc keep =
    List.fold_left
      (fun acc (pf, c) -> if keep pf then Metrics.Loc_metrics.add acc c else acc)
      Metrics.Loc_metrics.zero file_loc
  in
  let globals_in_file = Hashtbl.create (List.length files) in
  List.iter
    (fun (g : Metrics.Globals.record) ->
      let file = g.Metrics.Globals.file in
      Hashtbl.replace globals_in_file file
        (1 + Option.value ~default:0 (Hashtbl.find_opt globals_in_file file)))
    ctx.Misra.Rule.globals;
  let per_module =
    List.map
      (fun m ->
        let pfs = Cfront.Project.parsed_files_of_module parsed m in
        let fns = Cfront.Project.defined_functions pfs in
        let loc =
          sum_loc (fun pf -> pf.Cfront.Project.file.Cfront.Project.modname = m)
        in
        {
          modname = m;
          complexity =
            Metrics.Complexity.summarize ~modname:m
              ~loc:loc.Metrics.Loc_metrics.physical fns;
          loc;
          globals =
            Util.Stats.sum_int
              (List.map
                 (fun (pf : Cfront.Project.parsed_file) ->
                   Option.value ~default:0
                     (Hashtbl.find_opt globals_in_file
                        (Cfront.Project.tu pf).Cfront.Ast.tu_file))
                 pfs);
          multi_exit_frac = Metrics.Func_shape.multi_exit_fraction fns;
          gotos = Metrics.Func_shape.total_gotos fns;
          dataflow = List.assoc m module_dataflow;
        })
      module_names
  in
  let all_fns = Cfront.Project.all_functions parsed in
  let casts = Metrics.Casts.of_functions all_fns in
  let shadowing = ctx.Misra.Rule.shadowing in
  let loc_all = sum_loc (fun _ -> true) in
  let style = Metrics.Style.of_files files in
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
    recursive_functions = Cfront.Callgraph.recursive_functions graph;
    dyn_alloc_sites = List.length (Metrics.Pointers.dyn_allocs_of_functions all_fns);
    pointer_usage = Metrics.Pointers.usage_of_functions all_fns;
    multi_exit_frac = Metrics.Func_shape.multi_exit_fraction all_fns;
    param_validation_ratio = Metrics.Defensive.param_validation_ratio all_fns;
    ignored_returns =
      List.length (Metrics.Defensive.ignored_returns ~funcs:all_fns all_fns);
    assertions = Metrics.Defensive.assertion_count all_fns;
    style_findings = List.length style;
    style_per_kloc = Metrics.Style.per_kloc style loc_all;
    naming_violations = List.length (Metrics.Naming.of_files files);
    architecture =
      Metrics.Architecture.build ~graph ~parsed
        ~module_loc:
          (List.map
             (fun m -> (m.modname, m.loc.Metrics.Loc_metrics.physical))
             per_module);
    namespace_depth = Metrics.Architecture.namespace_depth files;
    cuda = Cudasim.Census.of_files files;
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

let lookup_core parsed =
  match Cache.global () with
  | None -> None
  | Some c -> Cache.find c ~kind:"metrics" ~key:(core_key parsed)

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
      Option.iter
        (fun c ->
          Cache.store c ~kind:"metrics" ~key:(core_key parsed)
            { m with interproc = no_interproc () })
        (Cache.global ());
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
