(** Safety-requirement traceability.

    The paper's introduction describes the ISO 26262 life-cycle: safety
    goals are refined, "via a technical safety concept, to software and
    other architectural components", with "traceability as a fundamental
    element to link high-level requirements, low-level requirements, and
    analyzes".

    This module implements that linkage for the AD pipeline: a small
    model of safety goals, decomposed into software safety requirements,
    each allocated to pipeline modules and verified by specific guideline
    topics.  The audit's per-topic verdicts then roll up into a
    per-requirement and per-goal status — the traceability matrix an
    assessor asks for first. *)

type safety_goal = {
  sg_id : string;
  sg_text : string;
  sg_asil : Asil.t;
}

type software_requirement = {
  sr_id : string;
  sr_goal : string;  (** parent goal id *)
  sr_text : string;
  sr_modules : string list;  (** allocated components *)
  sr_verified_by : (Guidelines.table * int) list;  (** guideline topics *)
}

let goals =
  [
    { sg_id = "G1"; sg_text = "The vehicle shall not collide with detected obstacles";
      sg_asil = Asil.D };
    { sg_id = "G2"; sg_text = "The vehicle shall remain within its drivable corridor";
      sg_asil = Asil.D };
    { sg_id = "G3"; sg_text = "Control commands shall be timely and bounded";
      sg_asil = Asil.D };
    { sg_id = "G4"; sg_text = "The system shall remain operational under single software faults";
      sg_asil = Asil.D };
  ]

let requirements =
  [
    { sr_id = "SR1.1"; sr_goal = "G1";
      sr_text = "Object detection shall process every frame deterministically";
      sr_modules = [ "perception" ];
      sr_verified_by = [ (Guidelines.Coding, 1); (Guidelines.Unit_design, 2) ] };
    { sr_id = "SR1.2"; sr_goal = "G1";
      sr_text = "Detection code shall be exhaustively testable (coverage evidence)";
      sr_modules = [ "perception" ];
      sr_verified_by = [ (Guidelines.Coding, 2); (Guidelines.Unit_design, 8) ] };
    { sr_id = "SR1.3"; sr_goal = "G1";
      sr_text = "Obstacle trajectories shall be predicted with validated inputs";
      sr_modules = [ "prediction" ];
      sr_verified_by = [ (Guidelines.Coding, 4) ] };
    { sr_id = "SR2.1"; sr_goal = "G2";
      sr_text = "Localization shall be free of unbounded recursion and hidden flow";
      sr_modules = [ "localization"; "map" ];
      sr_verified_by = [ (Guidelines.Unit_design, 10); (Guidelines.Unit_design, 8) ] };
    { sr_id = "SR2.2"; sr_goal = "G2";
      sr_text = "Planning shall use typed, initialized state only";
      sr_modules = [ "planning" ];
      sr_verified_by = [ (Guidelines.Coding, 3); (Guidelines.Unit_design, 3) ] };
    { sr_id = "SR3.1"; sr_goal = "G3";
      sr_text = "Control and CAN paths shall have analyzable timing";
      sr_modules = [ "control"; "canbus" ];
      sr_verified_by = [ (Guidelines.Coding, 1); (Guidelines.Architecture, 6) ] };
    { sr_id = "SR3.2"; sr_goal = "G3";
      sr_text = "Control flow shall have single entry/exit and no jumps";
      sr_modules = [ "control" ];
      sr_verified_by = [ (Guidelines.Unit_design, 1); (Guidelines.Unit_design, 9) ] };
    { sr_id = "SR4.1"; sr_goal = "G4";
      sr_text = "Shared state shall be bounded and justified (globals, interfaces)";
      sr_modules = [ "common"; "perception"; "planning" ];
      sr_verified_by = [ (Guidelines.Unit_design, 5); (Guidelines.Architecture, 3) ] };
    { sr_id = "SR4.2"; sr_goal = "G4";
      sr_text = "Components shall be small and loosely coupled for fault containment";
      sr_modules = [ "perception"; "planning"; "prediction" ];
      sr_verified_by = [ (Guidelines.Architecture, 2); (Guidelines.Architecture, 5) ] };
  ]

type req_status = Verified | Partially_verified | Not_verified

let status_name = function
  | Verified -> "verified"
  | Partially_verified -> "partial"
  | Not_verified -> "NOT VERIFIED"

type req_trace = {
  requirement : software_requirement;
  verdicts : (Guidelines.table * int * Assess.verdict) list;
  status : req_status;
}

type goal_trace = {
  goal : safety_goal;
  reqs : req_trace list;
  goal_verified : bool;
}

(** Join the requirement model with assessment findings. *)
let trace (findings : Assess.finding list) =
  let verdict_of table index =
    match
      List.find_opt
        (fun (f : Assess.finding) ->
          f.Assess.topic.Guidelines.table = table
          && f.Assess.topic.Guidelines.index = index)
        findings
    with
    | Some f -> f.Assess.verdict
    | None -> Assess.Not_applicable
  in
  let trace_req sr =
    let verdicts =
      List.map (fun (t, i) -> (t, i, verdict_of t i)) sr.sr_verified_by
    in
    let relevant =
      List.filter (fun (_, _, v) -> v <> Assess.Not_applicable) verdicts
    in
    let passes = List.filter (fun (_, _, v) -> v = Assess.Pass) relevant in
    let status =
      if relevant = [] then Not_verified
      else if List.length passes = List.length relevant then Verified
      else if passes <> [] then Partially_verified
      else Not_verified
    in
    { requirement = sr; verdicts; status }
  in
  List.map
    (fun goal ->
      let reqs =
        List.map trace_req
          (List.filter (fun sr -> sr.sr_goal = goal.sg_id) requirements)
      in
      {
        goal;
        reqs;
        goal_verified = List.for_all (fun r -> r.status = Verified) reqs;
      })
    goals

let render traces =
  let tbl =
    Util.Table.make
      ~title:"Traceability: safety goals -> software requirements -> guideline evidence"
      ~header:[ "goal"; "requirement"; "allocated to"; "evidence (table.item=verdict)"; "status" ]
      ~aligns:
        [ Util.Table.Left; Util.Table.Left; Util.Table.Left; Util.Table.Left;
          Util.Table.Left ]
      ()
  in
  let table_tag = function
    | Guidelines.Coding -> "T1"
    | Guidelines.Architecture -> "T3"
    | Guidelines.Unit_design -> "T8"
  in
  let tbl =
    List.fold_left
      (fun tbl gt ->
        List.fold_left
          (fun tbl rt ->
            Util.Table.add_row tbl
              [ gt.goal.sg_id ^ " (ASIL-" ^ Asil.to_string gt.goal.sg_asil ^ ")";
                rt.requirement.sr_id ^ " " ^ rt.requirement.sr_text;
                String.concat ", " rt.requirement.sr_modules;
                String.concat ", "
                  (List.map
                     (fun (t, i, v) ->
                       Printf.sprintf "%s.%d=%s" (table_tag t) i
                         (Assess.verdict_name v))
                     rt.verdicts);
                status_name rt.status ])
          tbl gt.reqs)
      tbl traces
  in
  let verified_goals = List.length (List.filter (fun g -> g.goal_verified) traces) in
  Util.Table.render tbl
  ^ Printf.sprintf "safety goals fully verified: %d of %d\n" verified_goals
      (List.length traces)

(* ------------------------------------------------------------------ *)
(* Tool-evidence matrix                                                *)
(* ------------------------------------------------------------------ *)

(** One row of the analysis → clause matrix: which analysis produced
    which measured evidence for which ISO 26262 Part 6 clause.  This is
    the "which tool run substantiates which requirement" table an
    assessor asks for alongside the goal/requirement trace. *)
type tool_evidence = {
  te_analysis : string;  (** analysis / checker identifier *)
  te_clause : string;  (** ISO 26262 clause the evidence addresses *)
  te_evidence : string;  (** measured result on this corpus *)
  te_shown : string list;  (** the first [shown_ids] linked finding ids *)
  te_count : int;  (** journal findings substantiating the row *)
}

(* The report prints this many ids of a row in full (they are
   [adcheck explain] handles) and counts the rest: an observation row
   over the MISRA journal links over a hundred thousand findings at full
   scale, so no row keeps its whole id list. *)
let shown_ids = 3

(* Select journal findings by (kind, analysis prefix); "" matches every
   analysis of the kind.  Returns the first [shown_ids] ids in journal
   order and the number of findings selected. *)
let linked_findings journal selectors =
  let shown = ref [] and count = ref 0 in
  List.iter
    (fun (f : Provenance.finding) ->
      if
        List.exists
          (fun (kind, prefix) ->
            f.Provenance.f_kind = kind
            && (prefix = ""
                || String.starts_with ~prefix f.Provenance.f_analysis))
          selectors
      then begin
        if !count < shown_ids then shown := f.Provenance.f_id :: !shown;
        incr count
      end)
    journal;
  (List.rev !shown, !count)

(* Which journal findings substantiate each numbered observation: the
   observation's claim is about the output of a specific analysis (or a
   specific guideline topic's metric verdict), so the selector names
   that analysis.  Observation 12 (open vs closed performance) is
   measured outside the static/coverage toolchain and links to none. *)
let observation_selectors = function
  | 1 -> [ ("metric", "T1.1") ]
  | 2 -> [ ("misra", ""); ("dataflow", "") ]
  | 3 | 4 -> [ ("misra", "CUDA-") ]
  | 5 -> [ ("metric", "T1.3") ]
  | 6 -> [ ("metric", "T1.4") ]
  | 7 -> [ ("metric", "T8.5") ]
  | 8 -> [ ("metric", "T1.7") ]
  | 9 -> [ ("metric", "T1.8") ]
  | 10 | 11 -> [ ("coverage", "") ]
  | 13 -> [ ("metric", "T3.") ]
  | 14 -> [ ("metric", "T8."); ("interproc", "") ]
  | _ -> []

let tool_evidence_matrix ?(journal = []) ?(observations = [])
    (m : Project_metrics.t) =
  let ip = m.Project_metrics.interproc in
  let r = ip.Interproc.Summary.graph.Cfront.Callgraph.resolution in
  let shared_globals =
    Util.Stats.sum_int
      (List.map
         (fun c -> c.Interproc.Summary.mc_shared)
         ip.Interproc.Summary.coupling)
  in
  let row te_analysis te_clause te_evidence selectors =
    let te_shown, te_count = linked_findings journal selectors in
    { te_analysis; te_clause; te_evidence; te_shown; te_count }
  in
  let clause_rows =
    [
      row "callgraph + interproc SCC condensation"
        "ISO 26262-6 Table 8 1f (no recursion)"
        (match ip.Interproc.Summary.cycles with
         | [] -> "0 recursion cycles"
         | cycles ->
           Printf.sprintf "%d recursion cycles (e.g. %s)" (List.length cycles)
             (String.concat " -> " (List.hd cycles)))
        [ ("interproc", "recursion-cycle"); ("misra", "17.2") ];
      row "interproc bottom-up stack bound"
        "ISO 26262-6 7.4.14 / Table 3 1a (hierarchy, bounded resources)"
        (Printf.sprintf "worst-case call depth %s, stack bound %s words"
           (Interproc.Summary.render_depth ip.Interproc.Summary.max_call_depth)
           (Interproc.Summary.render_depth ip.Interproc.Summary.max_stack_words))
        [ ("interproc", "unbounded-depth") ];
      row "interproc global coupling matrix"
        "ISO 26262-6 Table 3 1f/1g (restricted coupling, shared state)"
        (Printf.sprintf "%d mutable globals, %d touched by several modules"
           ip.Interproc.Summary.globals_total shared_globals)
        [ ("metric", "T3.") ];
      row "interproc definite assignment (IP-1)"
        "ISO 26262-6 Table 8 1d (initialization of variables)"
        (Printf.sprintf "%d uninitialized values flowing through calls"
           (List.length ip.Interproc.Summary.uninit_flows))
        [ ("interproc", "cross-call-uninit"); ("misra", "IP-1") ];
      row "callgraph resolution accounting"
        "ISO 26262-8 11 (confidence in use of software tools)"
        (Printf.sprintf
           "%d call sites: %d resolved, %d guessed, %d ambiguous, %d \
            unresolved, %d indirect"
           r.Cfront.Callgraph.total_sites r.Cfront.Callgraph.resolved
           r.Cfront.Callgraph.guessed r.Cfront.Callgraph.ambiguous
           r.Cfront.Callgraph.unresolved r.Cfront.Callgraph.indirect)
        [];
    ]
  in
  let observation_rows =
    List.map
      (fun (o : Observations.t) ->
        row
          (Printf.sprintf "observation %d" o.Observations.number)
          o.Observations.statement
          (Printf.sprintf "%s [%s]" o.Observations.evidence
             (if o.Observations.holds then "holds" else "does not hold"))
          (observation_selectors o.Observations.number))
      observations
  in
  clause_rows @ observation_rows

let render_finding_ids te =
  match te.te_shown with
  | [] -> "-"
  | shown ->
    String.concat " " shown
    ^ (if te.te_count > shown_ids then
         Printf.sprintf " +%d more" (te.te_count - shown_ids)
       else "")

let render_tool_evidence ?journal ?observations (m : Project_metrics.t) =
  let tbl =
    Util.Table.make
      ~title:"Traceability: static analyses -> ISO 26262 clause evidence"
      ~header:[ "analysis"; "clause"; "measured evidence"; "finding ids" ]
      ~aligns:
        [ Util.Table.Left; Util.Table.Left; Util.Table.Left; Util.Table.Left ]
      ()
  in
  let tbl =
    List.fold_left
      (fun tbl te ->
        Util.Table.add_row tbl
          [ te.te_analysis; te.te_clause; te.te_evidence;
            render_finding_ids te ])
      tbl
      (tool_evidence_matrix ?journal ?observations m)
  in
  Util.Table.render tbl

(** Requirements whose allocated modules do not all exist in the audited
    project — a traceability defect in itself. *)
let unallocated_requirements (m : Project_metrics.t) =
  let module_names =
    List.map (fun mm -> mm.Project_metrics.modname) m.Project_metrics.modules
  in
  List.filter
    (fun sr -> not (List.for_all (fun md -> List.mem md module_names) sr.sr_modules))
    requirements
