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

type report = {
  per_rule : (Rule.t * Rule.violation list) list;
  total_violations : int;
  rules_violated : int;
  rules_checked : int;
}

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

(* The violation a stored finding journals: its location and message,
   and its witness without the leading rule and site steps. *)
let violation_of_finding (r : Rule.t) (f : Provenance.finding) =
  match (f.Provenance.f_loc, f.Provenance.f_witness) with
  | Some loc, _rule :: _site :: witness ->
    { Rule.rule_id = r.Rule.id; loc; message = f.Provenance.f_message; witness }
  | _ -> invalid_arg ("Misra.Registry: malformed stored finding of rule " ^ r.Rule.id)

(* Per-rule artifact, keyed by rule id + the whole-tree content key:
   rules see the whole project through the context, so any edit re-runs
   them.  The stored value is the rule's journal findings, ids computed,
   so a hit derives its violations and journals without hashing. *)
type lookup = {
  cache : (Cache.t * string) option;  (** the store and the content key *)
  stored : Provenance.finding list option list;  (** per rule of [all_rules] *)
}

let rule_key (r : Rule.t) ck = Cache.key ~kind:"misra" [ r.Rule.id; ck ]

let no_store rules = { cache = None; stored = List.map (fun _ -> None) rules }

let lookup parsed =
  match Cache.global () with
  | None -> no_store all_rules
  | Some c ->
    Telemetry.with_span ~cat:"misra" "misra.lookup" @@ fun () ->
    let ck = Cfront.Project.content_key parsed in
    { cache = Some (c, ck);
      stored =
        Telemetry.parallel_map ~chunk_size:1
          (fun r -> Cache.find c ~kind:"misra" ~key:(rule_key r ck))
          all_rules }

let all_hit l = List.for_all Option.is_some l.stored

let run_deferred ~rules ~lookup:{ cache; stored } build =
  Telemetry.with_span ~cat:"misra" "misra"
    ~attrs:[ ("rules", string_of_int (List.length rules)) ]
    (fun () ->
      (* [build] (the dataflow facts and interproc summaries included)
         runs once, on the calling domain, only when some rule missed:
         a warm run builds nothing. *)
      let ctx =
        if List.exists Option.is_none stored then Some (build ()) else None
      in
      (* One task per rule (costs vary by orders of magnitude, so no
         chunking); the context is shared read-only across domains and
         results come back in registration order, making the report
         identical at every --jobs value.  At --jobs 1 this is List.map,
         per-rule spans included.  Under a store a miss makes its
         findings and stores them outside the timed region, so a rule's
         timing measures its check alone. *)
      let per_rule =
        Telemetry.parallel_map ~chunk_size:1
          (fun ((r : Rule.t), hit) ->
            let outcome =
              Telemetry.with_span ~cat:"misra" ("misra.rule." ^ r.Rule.id)
                (fun () ->
                  (* timed region innermost so the measured ticks are the
                     same whether the span is live (jobs=1) or suppressed
                     on a worker (jobs>1) *)
                  Telemetry.timed ("misra.rule_us." ^ r.Rule.id)
                    (fun () ->
                      match hit with
                      | Some findings -> `Stored findings
                      | None -> `Checked (r.Rule.check (Option.get ctx))))
            in
            let vs, findings =
              match outcome with
              | `Stored findings -> (List.map (violation_of_finding r) findings, Some findings)
              | `Checked vs ->
                ( vs,
                  Option.map
                    (fun (c, ck) ->
                      let rule_step = rule_step r in
                      let findings = List.map (finding_of_violation ~rule_step r) vs in
                      Cache.store c ~kind:"misra" ~key:(rule_key r ck) findings;
                      findings)
                    cache )
            in
            Telemetry.add ("misra.violations." ^ r.Rule.id) (List.length vs);
            Telemetry.observe "misra.rule_violations"
              (float_of_int (List.length vs));
            ((r, vs), findings))
          (List.combine rules stored)
      in
      (* Journal on the calling domain in registration order, so the
         journal is identical at every --jobs value.  Without a store
         the findings are made here, one at a time, so no list of them
         is held next to the journal. *)
      List.iter
        (fun (((r : Rule.t), vs), findings) ->
          match findings with
          | Some findings -> List.iter Provenance.record findings
          | None ->
            let rule_step = rule_step r in
            List.iter (fun v -> Provenance.record (finding_of_violation ~rule_step r v)) vs)
        per_rule;
      let per_rule = List.map fst per_rule in
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
      })

let run_project ?lookup:l ?context parsed =
  let l = match l with Some l -> l | None -> lookup parsed in
  run_deferred ~rules:all_rules ~lookup:l (fun () ->
      match context with Some ctx -> ctx | None -> Rule.build_context parsed)

let run ?(rules = all_rules) ctx = run_deferred ~rules ~lookup:(no_store rules) (fun () -> ctx)

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
    checked.  MISRA compliance is per-rule (a violation on any instance
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
