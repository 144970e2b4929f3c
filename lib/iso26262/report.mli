(** Text rendering of assessment artifacts in the shape of the paper's
    tables and figures. *)

(** A findings table in the paper's Table 1-3 layout: topic, the four
    per-ASIL recommendation cells, verdict, evidence. *)
val render_findings : title:string -> Assess.finding list -> string

(** Per-ASIL "N of M binding guidelines satisfied" summary. *)
val render_compliance : Assess.finding list -> string

(** The Observations 1-14 table. *)
val render_observations : Observations.t list -> string

(** The Figure 3 per-module complexity/LOC/function table. *)
val render_module_summaries : Project_metrics.t -> string

(** Per-module flow-sensitive counts (CFG size, unreachable regions, dead
    stores, uninitialized reads, propagated constant conditions) with a
    totals row.  [dataflow_table] exposes the raw table for alternative
    output formats. *)
val dataflow_table : Project_metrics.t -> Util.Table.t

val render_dataflow : Project_metrics.t -> string

(** Per-module global-coupling counts (declared / read / written /
    shared) from the whole-program summary engine, with a totals row. *)
val interproc_table : Interproc.Summary.t -> Util.Table.t

(** Coupling table plus call-graph resolution accounting, recursion
    cycles, worst-case call depth / stack bound, purity and cross-call
    uninitialized flows. *)
val render_interproc : Interproc.Summary.t -> string

(** A Figure 5/6-style coverage table (statement, branch, MC/DC,
    function coverage, excluded functions) plus the averages line. *)
val render_coverage :
  title:string -> Coverage.Collector.file_coverage list -> string
