(** Safety-requirement traceability: the goal → requirement → evidence
    linkage the ISO 26262 life-cycle is built around ("traceability as a
    fundamental element", paper §1). *)

type safety_goal = {
  sg_id : string;
  sg_text : string;
  sg_asil : Asil.t;
}

type software_requirement = {
  sr_id : string;
  sr_goal : string;  (** parent goal id *)
  sr_text : string;
  sr_modules : string list;  (** allocated pipeline components *)
  sr_verified_by : (Guidelines.table * int) list;  (** verifying guideline topics *)
}

(** The software safety requirements refined from the goals. *)
val requirements : software_requirement list

type req_status = Verified | Partially_verified | Not_verified

type req_trace = {
  requirement : software_requirement;
  verdicts : (Guidelines.table * int * Assess.verdict) list;
  status : req_status;
}

type goal_trace = {
  goal : safety_goal;
  reqs : req_trace list;
  goal_verified : bool;  (** all child requirements fully verified *)
}

(** Join the requirement model with assessment findings. *)
val trace : Assess.finding list -> goal_trace list

(** The traceability matrix as a text table, with the per-goal roll-up. *)
val render : goal_trace list -> string

(** One row of the analysis → clause matrix: which analysis produced
    which measured evidence for which ISO 26262 Part 6 clause, and which
    journal findings substantiate it. *)
type tool_evidence = {
  te_analysis : string;
  te_clause : string;
  te_evidence : string;
  te_shown : string list;
      (** the first three linked finding ids in journal order — the
          [adcheck explain] handles the report prints *)
  te_count : int;  (** how many journal findings the row links *)
}

(** Whole-program evidence rows (recursion, stack bound, global
    coupling, cross-call initialization, call-resolution confidence)
    traced to their ISO 26262 clauses, followed by one row per entry of
    [observations].  [journal] supplies the findings each row links to
    (by kind and analysis); with no journal every [te_shown] is empty
    and every [te_count] 0. *)
val tool_evidence_matrix :
  ?journal:Provenance.finding list ->
  ?observations:Observations.t list ->
  Project_metrics.t ->
  tool_evidence list

val render_tool_evidence :
  ?journal:Provenance.finding list ->
  ?observations:Observations.t list ->
  Project_metrics.t ->
  string

(** Requirements allocated to components that do not exist in the audited
    project — a traceability defect in itself. *)
val unallocated_requirements : Project_metrics.t -> software_requirement list
