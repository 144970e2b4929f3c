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
  store : Cache.t;  (** where a missed rule's findings go *)
  content_key : string;
  stored : Provenance.finding list option list;  (** per rule of [all_rules] *)
}

let rule_key (r : Rule.t) ck = Cache.key ~kind:"misra" [ r.Rule.id; ck ]

let lookup parsed =
  Telemetry.with_span ~cat:"misra" "misra.lookup" @@ fun () ->
  let store = Cache.global () in
  let content_key = Cfront.Project.content_key parsed in
  { store;
    content_key;
    stored =
      Telemetry.parallel_map ~chunk_size:1
        (fun r -> Cache.find store ~kind:"misra" ~key:(rule_key r content_key))
        all_rules }

let all_hit l = List.for_all Option.is_some l.stored

(* What became of a rule in one run: its stored findings, or the
   violations its [check] or the shared walk found. *)
type outcome = Stored of Provenance.finding list | Checked of Rule.violation list

(* One task of a run: a rule on its own, or one chunk of the walk. *)
type task = Rule_task of int | Walk_chunk of int

let run_deferred ~rules ~lookup:{ store; content_key; stored } build =
  Telemetry.with_span ~cat:"misra" "misra"
    ~attrs:[ ("rules", string_of_int (List.length rules)) ]
    (fun () ->
      (* [build] (the dataflow facts and interproc summaries included)
         runs once, on the calling domain, only when some rule missed:
         a warm run builds nothing. *)
      let ctx =
        if List.exists Option.is_none stored then Some (build ()) else None
      in
      let rules = Array.of_list rules and stored = Array.of_list stored in
      (* The visitor rules that missed share one walk per function. *)
      let walked =
        List.filter
          (fun i -> stored.(i) = None && rules.(i).Rule.visit <> None)
          (List.init (Array.length rules) Fun.id)
      in
      let walk =
        Rule.plan
          (Array.of_list (List.map (fun i -> Option.get rules.(i).Rule.visit) walked))
      in
      let fns =
        match (ctx, walked) with
        | Some ctx, _ :: _ -> Some (Rule.functions_of ctx)
        | _ -> None
      in
      let n_chunks = Option.fold ~none:0 ~some:Rule.n_chunks fns in
      (* One task per rule that is not walked (costs vary by orders of
         magnitude) and one per chunk of the walk (a fixed number of
         functions); the context is shared read-only across domains and
         results come back in task order, making the report identical
         at every --jobs value.  At --jobs 1 this is List.map, spans
         included.  A rule task's timing measures its check alone.  The
         chunks come last: run first, the GC work their allocation
         leaves lands in the check rules' timed regions (DF-1's sample
         grew by two thirds on the small corpus). *)
      let tasks =
        List.filter_map
          (fun i -> if List.mem i walked then None else Some (Rule_task i))
          (List.init (Array.length rules) Fun.id)
        @ List.init n_chunks (fun c -> Walk_chunk c)
      in
      let results =
        Telemetry.parallel_map ~chunk_size:1
          (function
            | Walk_chunk c ->
              `Chunk
                (Telemetry.with_span ~cat:"misra" "misra.walk" (fun () ->
                     Rule.run_chunk walk (Option.get fns) c))
            | Rule_task i ->
              let r = rules.(i) in
              `Rule
                (i,
                 Telemetry.with_span ~cat:"misra" ("misra.rule." ^ r.Rule.id) (fun () ->
                     (* timed region innermost so the measured ticks are
                        the same whether the span is live (jobs=1) or
                        suppressed on a worker (jobs>1) *)
                     Telemetry.timed ("misra.rule_us." ^ r.Rule.id) (fun () ->
                         match stored.(i) with
                         | Some findings -> Stored findings
                         | None -> Checked (r.Rule.check (Option.get ctx))))))
          tasks
      in
      let outcomes = Array.make (Array.length rules) (Checked []) in
      let chunks = ref [] in
      List.iter
        (function
          | `Rule (i, o) -> outcomes.(i) <- o
          | `Chunk c -> chunks := c :: !chunks)
        results;
      let chunks = List.rev !chunks in
      (* A walked rule's violations are its chunks' in order, and its
         one timing sample is the sum of its handlers' and [finish]'s
         time over the chunks. *)
      List.iteri
        (fun k i ->
          Telemetry.observe ("misra.rule_us." ^ rules.(i).Rule.id)
            (List.fold_left (fun t (_, elapsed) -> t +. elapsed.(k)) 0.0 chunks);
          outcomes.(i) <- Checked (List.concat_map (fun (found, _) -> found.(k)) chunks))
        walked;
      let per_rule =
        Array.to_list
          (Array.mapi
             (fun i (r : Rule.t) ->
               let vs =
                 match outcomes.(i) with
                 | Stored findings -> List.map (violation_of_finding r) findings
                 | Checked vs -> vs
               in
               Telemetry.add ("misra.violations." ^ r.Rule.id) (List.length vs);
               Telemetry.observe "misra.rule_violations" (float_of_int (List.length vs));
               (r, vs))
             rules)
      in
      (* Journal on the calling domain in registration order, so the
         journal is identical at every --jobs value.  A missed rule's
         findings are made and journaled one at a time; only a real
         store keeps them, as the rule's artifact. *)
      List.iteri
        (fun i ((r : Rule.t), vs) ->
          match outcomes.(i) with
          | Stored findings -> List.iter Provenance.record findings
          | Checked _ ->
            let rule_step = rule_step r in
            Cache.store_each store ~kind:"misra" ~key:(rule_key r content_key)
              (fun keep ->
                List.iter
                  (fun v ->
                    let f = finding_of_violation ~rule_step r v in
                    Provenance.record f;
                    keep f)
                  vs))
        per_rule;
      let total_violations =
        Util.Stats.sum_int (List.map (fun (_, vs) -> List.length vs) per_rule)
      in
      Telemetry.incr "misra.runs";
      Telemetry.add "misra.rules_checked" (Array.length rules);
      Telemetry.add "misra.violations" total_violations;
      {
        per_rule;
        total_violations;
        rules_violated =
          List.length (List.filter (fun (_, vs) -> vs <> []) per_rule);
        rules_checked = Array.length rules;
      })

let run_project ?lookup:l ?context parsed =
  let l = match l with Some l -> l | None -> lookup parsed in
  run_deferred ~rules:all_rules ~lookup:l (fun () ->
      match context with Some ctx -> ctx | None -> Rule.build_context parsed)

(* A bare context has no content key, so its results go to no store. *)
let run ?(rules = all_rules) ctx =
  run_deferred ~rules
    ~lookup:{ store = Cache.null; content_key = ""; stored = List.map (fun _ -> None) rules }
    (fun () -> ctx)

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
