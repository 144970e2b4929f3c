(** Runtime coverage collector: aggregates the interpreter's hook events
    and joins them with the static {!Instrument} points into per-function
    and per-file reports. *)

type t = {
  origin : string;  (** scenario name attributions carry, "" when unnamed *)
  stmt_hits : (int, int) Hashtbl.t;
  decision_outcomes : (int * bool, int) Hashtbl.t;  (** (decision eid, outcome) *)
  switch_hits : (int * int, int) Hashtbl.t;  (** (switch sid, clause idx) *)
  calls : (string, int) Hashtbl.t;
  kernel_launches : (string, int) Hashtbl.t;
  mcdc : Mcdc.t;
  stmt_first : (int, string) Hashtbl.t;  (** sid -> first-covering scenario *)
  decision_first : (int * bool, string) Hashtbl.t;
}

let create ?(origin = "") () =
  {
    origin;
    stmt_hits = Hashtbl.create 1024;
    decision_outcomes = Hashtbl.create 256;
    switch_hits = Hashtbl.create 64;
    calls = Hashtbl.create 64;
    kernel_launches = Hashtbl.create 16;
    mcdc = Mcdc.create ();
    stmt_first = Hashtbl.create 1024;
    decision_first = Hashtbl.create 256;
  }

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Within one collector the origin is constant, so "first covering" is
   simply "covering": membership, not order, is what the table records.
   The scenario order sensitivity is resolved at merge time (least name
   wins), which keeps the attribution independent of execution order. *)
let attribute t tbl key =
  if t.origin <> "" && not (Hashtbl.mem tbl key) then
    Hashtbl.replace tbl key t.origin

let hooks t : Runtime.hooks =
  {
    Runtime.on_stmt =
      (fun sid ->
        bump t.stmt_hits sid;
        attribute t t.stmt_first sid);
    on_decision =
      (fun eid conds outcome ->
        bump t.decision_outcomes (eid, outcome);
        attribute t t.decision_first (eid, outcome);
        Mcdc.record t.mcdc ~decision_eid:eid ~conds ~outcome);
    on_switch = (fun sid clause -> bump t.switch_hits (sid, clause));
    on_call = (fun name -> bump t.calls name);
    on_kernel_launch = (fun name ~grid:_ ~block:_ -> bump t.kernel_launches name);
    on_function_stmt = (fun _ -> ());
  }

let function_called t name = Hashtbl.mem t.calls name

(* ------------------------------------------------------------------ *)
(* Merging                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-key sum of hit counts.  Addition is commutative and associative,
   and every score below is a *membership* test on the key set (a key is
   present iff its count is > 0, counts never go negative), so merged
   coverage is exact at any partition of the scenario set — not an
   approximation.  See DESIGN.md "Scenario-parallel coverage". *)
let merge_counts dst src =
  Hashtbl.iter
    (fun k n -> Hashtbl.replace dst k (n + Option.value ~default:0 (Hashtbl.find_opt dst k)))
    src

(* Attribution merge: the lexicographically-least covering scenario name
   wins.  Min is commutative, associative and idempotent, so like the
   count sums the result is identical for every partition and merge
   order of the scenario set — and independent of which scenario
   happened to execute first. *)
let merge_first dst src =
  Hashtbl.iter
    (fun k name ->
      match Hashtbl.find_opt dst k with
      | None -> Hashtbl.replace dst k name
      | Some cur -> if name < cur then Hashtbl.replace dst k name)
    src

let merge_into ~into src =
  merge_counts into.stmt_hits src.stmt_hits;
  merge_counts into.decision_outcomes src.decision_outcomes;
  merge_counts into.switch_hits src.switch_hits;
  merge_counts into.calls src.calls;
  merge_counts into.kernel_launches src.kernel_launches;
  Mcdc.merge_into ~into:into.mcdc src.mcdc;
  merge_first into.stmt_first src.stmt_first;
  merge_first into.decision_first src.decision_first

let merge ts =
  let acc = create () in
  List.iter (fun t -> merge_into ~into:acc t) ts;
  acc

(* Deterministic rendering of the full collector state, canonically
   ordered: equal fingerprints iff the collectors are observationally
   identical.  The differential suite compares these across jobs values;
   the property tests across random partitions and merge orders. *)
let fingerprint t =
  let buf = Buffer.create 4096 in
  let sorted_list fold tbl = List.sort compare (fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let section name rows render =
    Buffer.add_string buf name;
    Buffer.add_char buf ':';
    List.iter
      (fun kv ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (render kv))
      rows;
    Buffer.add_char buf '\n'
  in
  section "stmt" (sorted_list Hashtbl.fold t.stmt_hits)
    (fun (sid, n) -> Printf.sprintf "%d=%d" sid n);
  section "decision" (sorted_list Hashtbl.fold t.decision_outcomes)
    (fun ((eid, o), n) -> Printf.sprintf "%d/%b=%d" eid o n);
  section "switch" (sorted_list Hashtbl.fold t.switch_hits)
    (fun ((sid, c), n) -> Printf.sprintf "%d/%d=%d" sid c n);
  section "call" (sorted_list Hashtbl.fold t.calls)
    (fun (f, n) -> Printf.sprintf "%s=%d" f n);
  section "kernel" (sorted_list Hashtbl.fold t.kernel_launches)
    (fun (f, n) -> Printf.sprintf "%s=%d" f n);
  section "stmt_first" (sorted_list Hashtbl.fold t.stmt_first)
    (fun (sid, s) -> Printf.sprintf "%d=%s" sid s);
  section "decision_first" (sorted_list Hashtbl.fold t.decision_first)
    (fun ((eid, o), s) -> Printf.sprintf "%d/%b=%s" eid o s);
  section "mcdc" (Mcdc.canonical t.mcdc)
    (fun (eid, vectors) ->
      Printf.sprintf "%d=[%s]" eid
        (String.concat ";"
           (List.map
              (fun (v : Mcdc.vector) ->
                Printf.sprintf "%s->%b"
                  (String.concat ","
                     (List.map
                        (fun (cid, b) ->
                          Printf.sprintf "%d:%s" cid
                            (match b with
                             | None -> "_"
                             | Some true -> "t"
                             | Some false -> "f"))
                        v.Mcdc.conds))
                  v.Mcdc.outcome)
              vectors)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Scoring                                                             *)
(* ------------------------------------------------------------------ *)

type func_coverage = {
  fp : Instrument.func_points;
  called : bool;
  stmts_hit : int;
  stmts_total : int;
  branches_hit : int;
  branches_total : int;
  conditions_hit : int;
  conditions_total : int;
  first_covered_by : string option;
      (** least-named scenario covering any of the function's statements *)
}

let first_covering_stmt t sid = Hashtbl.find_opt t.stmt_first sid
let first_covering_decision t eid outcome = Hashtbl.find_opt t.decision_first (eid, outcome)

let score_function ?(mcdc_mode = `Masking) t (fp : Instrument.func_points) =
  let stmts_hit =
    List.length (List.filter (fun sid -> Hashtbl.mem t.stmt_hits sid) fp.Instrument.stmts)
  in
  let dec_outcomes =
    Util.Stats.sum_int
      (List.map
         (fun (d : Instrument.decision) ->
           (if Hashtbl.mem t.decision_outcomes (d.Instrument.d_eid, true) then 1 else 0)
           + if Hashtbl.mem t.decision_outcomes (d.Instrument.d_eid, false) then 1 else 0)
         fp.Instrument.decisions)
  in
  let switch_outcomes =
    Util.Stats.sum_int
      (List.map
         (fun (sw : Instrument.switch_point) ->
           let n = ref 0 in
           for c = 0 to sw.Instrument.clauses - 1 do
             if Hashtbl.mem t.switch_hits (sw.Instrument.sw_sid, c) then incr n
           done;
           !n)
         fp.Instrument.switches)
  in
  let cond_scores =
    List.map
      (fun (d : Instrument.decision) ->
        Mcdc.decision_score ~mode:mcdc_mode t.mcdc ~decision_eid:d.Instrument.d_eid
          ~conditions:d.Instrument.conditions)
      fp.Instrument.decisions
  in
  let stmts_total = List.length fp.Instrument.stmts in
  let branches_total =
    (2 * List.length fp.Instrument.decisions)
    + Util.Stats.sum_int
        (List.map (fun sw -> sw.Instrument.clauses) fp.Instrument.switches)
  in
  let first_covered_by =
    List.fold_left
      (fun acc sid ->
        match (acc, Hashtbl.find_opt t.stmt_first sid) with
        | None, x | x, None -> x
        | Some a, Some b -> Some (if b < a then b else a))
      None fp.Instrument.stmts
  in
  {
    fp;
    called = function_called t fp.Instrument.fp_name;
    stmts_hit;
    stmts_total;
    branches_hit = dec_outcomes + switch_outcomes;
    branches_total;
    conditions_hit = Util.Stats.sum_int (List.map fst cond_scores);
    conditions_total = Util.Stats.sum_int (List.map snd cond_scores);
    first_covered_by;
  }

type file_coverage = {
  file : string;
  functions : func_coverage list;  (** called functions only *)
  excluded : int;  (** functions never called, excluded as in the paper *)
  stmt_pct : float;
  branch_pct : float;
  mcdc_pct : float;
  function_pct : float;  (** fraction of defined functions entered at all *)
}

let pct a b = if b = 0 then 100.0 else 100.0 *. float_of_int a /. float_of_int b

(* Journal the coverage conclusions scoring reaches: a never-entered
   function, or a called function some of whose statements, branches or
   conditions no scenario reached.  The first-covering scenario is part
   of the witness — it proves the function was exercised at all, which
   is what makes the residual gap a finding rather than an exclusion. *)
let record_gap_findings ~file scored =
  List.iter
    (fun fc ->
      let name = fc.fp.Instrument.fp_name in
      let loc = fc.fp.Instrument.fp_loc in
      if not fc.called then
        Provenance.record
          (Provenance.make ~kind:"coverage" ~analysis:"uncovered-function" ~loc
             ~message:(Printf.sprintf "%s is never called by any scenario" name)
             ~witness:
               [
                 Provenance.step ~loc "function" "%s defined in %s" name file;
                 Provenance.step "scenarios"
                   "no scenario's call log contains %s" name;
               ]
             ())
      else if
        fc.stmts_hit < fc.stmts_total
        || fc.branches_hit < fc.branches_total
        || fc.conditions_hit < fc.conditions_total
      then
        Provenance.record
          (Provenance.make ~kind:"coverage" ~analysis:"coverage-gap" ~loc
             ~message:
               (Printf.sprintf
                  "%s has residual gaps: %d/%d statements, %d/%d branches, %d/%d conditions"
                  name fc.stmts_hit fc.stmts_total fc.branches_hit
                  fc.branches_total fc.conditions_hit fc.conditions_total)
             ~witness:
               ((match fc.first_covered_by with
                 | Some sc ->
                   [ Provenance.step "scenario" "first covered by %s" sc ]
                 | None -> [])
                @ [
                    Provenance.step ~loc "function" "%s defined in %s" name file;
                    Provenance.step "residual"
                      "uncovered: %d statements, %d branch outcomes, %d conditions"
                      (fc.stmts_total - fc.stmts_hit)
                      (fc.branches_total - fc.branches_hit)
                      (fc.conditions_total - fc.conditions_hit);
                  ])
             ()))
    scored

let score_file ?(mcdc_mode = `Masking) t ~file (fps : Instrument.func_points list) =
  let scored = List.map (score_function ~mcdc_mode t) fps in
  record_gap_findings ~file scored;
  let called, not_called = List.partition (fun fc -> fc.called) scored in
  let sum f = Util.Stats.sum_int (List.map f called) in
  {
    file;
    functions = called;
    excluded = List.length not_called;
    stmt_pct = pct (sum (fun fc -> fc.stmts_hit)) (sum (fun fc -> fc.stmts_total));
    branch_pct = pct (sum (fun fc -> fc.branches_hit)) (sum (fun fc -> fc.branches_total));
    mcdc_pct = pct (sum (fun fc -> fc.conditions_hit)) (sum (fun fc -> fc.conditions_total));
    function_pct = pct (List.length called) (List.length scored);
  }

(** Aggregate means across files (unweighted, as the paper's per-file plot
    averages are). *)
let averages files =
  ( Util.Stats.mean (List.map (fun f -> f.stmt_pct) files),
    Util.Stats.mean (List.map (fun f -> f.branch_pct) files),
    Util.Stats.mean (List.map (fun f -> f.mcdc_pct) files) )
