(** Rule registry and whole-project runner. *)

let c_rules =
  Rules_control.all @ Rules_types.all @ Rules_functions.all @ Rules_preproc.all
  @ Rules_extended.all @ Rules_wave3.all

let cuda_rules = Rules_cuda.all

(** Flow-sensitive extended rules (dead stores, propagated constant
    conditions) built on the dataflow engine. *)
let dataflow_rules = Rules_dataflow.all

(** Whole-program rules built on the interprocedural summary engine. *)
let interproc_rules = Rules_interproc.all

let all_rules = c_rules @ cuda_rules @ dataflow_rules @ interproc_rules

let find_rule id = List.find_opt (fun (r : Rule.t) -> r.Rule.id = id) all_rules

(** A documented deviation, the mechanism MISRA compliance actually uses:
    a rule may be violated up to [max_instances] times (unbounded when
    [None]) given a recorded justification.  Deviations of [Mandatory]
    rules are not permitted and are ignored with a note. *)
type deviation = {
  dev_rule : string;
  justification : string;
  max_instances : int option;
}

type deviation_outcome = {
  deviation : deviation;
  suppressed : int;  (** violations covered by the deviation *)
  residual : int;  (** violations beyond [max_instances] *)
  rejected : bool;  (** deviation targeted a mandatory rule *)
}

type report = {
  per_rule : (Rule.t * Rule.violation list) list;
  total_violations : int;
  rules_violated : int;
  rules_checked : int;
  deviations : deviation_outcome list;
}

let apply_deviations deviations per_rule =
  let outcomes = ref [] in
  let per_rule =
    List.map
      (fun ((r : Rule.t), vs) ->
        match List.find_opt (fun d -> d.dev_rule = r.Rule.id) deviations with
        | None -> (r, vs)
        | Some d when r.Rule.category = Rule.Mandatory ->
          outcomes := { deviation = d; suppressed = 0; residual = List.length vs;
                        rejected = true } :: !outcomes;
          (r, vs)
        | Some d ->
          let n = List.length vs in
          let allowed = Option.value ~default:n d.max_instances in
          let suppressed = Stdlib.min n allowed in
          outcomes :=
            { deviation = d; suppressed; residual = n - suppressed;
              rejected = false }
            :: !outcomes;
          (* keep only the residual (oldest-first excess) *)
          (r, List.filteri (fun i _ -> i >= suppressed) vs))
      per_rule
  in
  (per_rule, List.rev !outcomes)

(* Journal entry for one violation: the rule metadata and the violation
   site frame whatever rule-specific steps the check attached (dataflow
   path, call chain, recursion cycle), so every MISRA finding has a
   non-empty witness chain even for purely syntactic rules.  The "rule"
   step is the same for every violation of a rule, so it is formatted
   once per rule ([rule_step]) and shared. *)
let rule_step (r : Rule.t) =
  Provenance.step "rule" "MISRA %s (%s): %s" r.Rule.id
    (Rule.category_name r.Rule.category) r.Rule.title

let finding_of_violation ~rule_step (r : Rule.t) (v : Rule.violation) =
  let site =
    { Provenance.w_label = "site"; w_loc = Some v.Rule.loc; w_detail = v.Rule.message }
  in
  Provenance.make ~kind:"misra" ~analysis:r.Rule.id ~loc:v.Rule.loc
    ~message:v.Rule.message ~witness:(rule_step :: site :: v.Rule.witness) ()

let run_deferred ?(rules = all_rules) ?(deviations = []) ?cache_key build =
  Telemetry.with_span ~cat:"misra" "misra"
    ~attrs:[ ("rules", string_of_int (List.length rules)) ]
    (fun () ->
      (* Per-rule artifact, keyed by rule id + the whole-tree content
         key: rules see the whole project through the context, so any
         edit re-runs them.  The stored value is only the violation
         list -- journaling below re-derives findings on the calling
         domain, so the evidence journal is byte-identical on hits.
         Every rule is looked up before the context is built, and
         [build] (the dataflow facts and interproc summaries included)
         runs once, on the calling domain, only when some rule missed:
         a warm run solves nothing. *)
      let cache =
        match (Cache.global (), cache_key) with
        | Some c, Some ck -> Some (c, ck)
        | _ -> None
      in
      let rule_key (r : Rule.t) ck = Cache.key ~kind:"misra" [ r.Rule.id; ck ] in
      let stored =
        match cache with
        | None -> List.map (fun _ -> None) rules
        | Some (c, ck) ->
          Telemetry.parallel_map ~chunk_size:1
            (fun r -> Cache.find c ~kind:"misra" ~key:(rule_key r ck))
            rules
      in
      let ctx =
        if List.exists Option.is_none stored then Some (build ()) else None
      in
      (* One task per rule (costs vary by orders of magnitude, so no
         chunking); the context is shared read-only across domains and
         results come back in registration order, making the report
         identical at every --jobs value.  At --jobs 1 this is List.map,
         per-rule spans included. *)
      let per_rule =
        Telemetry.parallel_map ~chunk_size:1
          (fun ((r : Rule.t), hit) ->
            let vs =
              Telemetry.with_span ~cat:"misra" ("misra.rule." ^ r.Rule.id)
                (fun () ->
                  (* timed region innermost so the measured ticks are the
                     same whether the span is live (jobs=1) or suppressed
                     on a worker (jobs>1) *)
                  Telemetry.timed ("misra.rule_us." ^ r.Rule.id)
                    (fun () ->
                      match hit with
                      | Some vs -> vs
                      | None ->
                        let vs = r.Rule.check (Option.get ctx) in
                        Option.iter
                          (fun (c, ck) ->
                            Cache.store c ~kind:"misra" ~key:(rule_key r ck) vs)
                          cache;
                        vs))
            in
            Telemetry.add ("misra.violations." ^ r.Rule.id) (List.length vs);
            Telemetry.observe "misra.rule_violations"
              (float_of_int (List.length vs));
            (r, vs))
          (List.combine rules stored)
      in
      let per_rule, outcomes = apply_deviations deviations per_rule in
      (* Journal after deviations so the evidence matches the report:
         suppressed violations leave no finding.  This runs on the
         calling domain in registration order, so the journal is
         identical at every --jobs value. *)
      List.iter
        (fun (r, vs) ->
          let rule_step = rule_step r in
          List.iter (fun v -> Provenance.record (finding_of_violation ~rule_step r v)) vs)
        per_rule;
      let total_violations =
        Util.Stats.sum_int (List.map (fun (_, vs) -> List.length vs) per_rule)
      in
      Telemetry.incr "misra.runs";
      Telemetry.add "misra.rules_checked" (List.length rules);
      Telemetry.add "misra.violations" total_violations;
      {
        per_rule;
        total_violations;
        rules_violated =
          List.length (List.filter (fun (_, vs) -> vs <> []) per_rule);
        rules_checked = List.length rules;
        deviations = outcomes;
      })

let run_project ?(rules = all_rules) ?context parsed =
  let cache_key =
    match Cache.global () with
    | None -> None
    | Some _ -> Some (Cfront.Project.content_key parsed)
  in
  run_deferred ~rules ?cache_key (fun () ->
      match context with Some ctx -> ctx | None -> Rule.build_context parsed)

let run ?rules ?deviations ?cache_key ctx =
  run_deferred ?rules ?deviations ?cache_key (fun () -> ctx)

(** Violations grouped by category. *)
let by_category report =
  List.map
    (fun cat ->
      let n =
        Util.Stats.sum_int
          (List.filter_map
             (fun ((r : Rule.t), vs) ->
               if r.Rule.category = cat then Some (List.length vs) else None)
             report.per_rule)
      in
      (cat, n))
    [ Rule.Mandatory; Rule.Required; Rule.Advisory ]

(** Compliance ratio over rules: rules with zero violations / rules
    checked.  MISRA compliance is per-rule (a deviation on any instance
    breaks the rule). *)
let rule_compliance report =
  if report.rules_checked = 0 then 1.0
  else
    float_of_int (report.rules_checked - report.rules_violated)
    /. float_of_int report.rules_checked

let render_summary report =
  let open Util in
  let t =
    Table.make ~title:"MISRA C:2012 (subset) compliance summary"
      ~header:[ "rule"; "category"; "title"; "violations" ]
      ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Right ]
      ()
  in
  let t =
    List.fold_left
      (fun t ((r : Rule.t), vs) ->
        Table.add_row t
          [ r.Rule.id; Rule.category_name r.Rule.category; r.Rule.title;
            string_of_int (List.length vs) ])
      t report.per_rule
  in
  Table.render t
