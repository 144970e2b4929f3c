(** Structured provenance for analysis results: the third observability
    pillar next to tracing (spans) and the flight recorder (metrics).

    Every finding an analysis produces — a MISRA violation, a dataflow
    fact, an interprocedural conclusion, a coverage gap, a metric
    threshold breach — is recorded here as a {!finding}: a stable
    content-derived identifier plus a {e witness chain}, the ordered
    list of concrete facts (source locations, dataflow facts, call
    chains, covering scenarios) that justify the finding.  The journal
    is what lets a reviewer audit the auditor: [adcheck --evidence]
    exports it as [adcheck-evidence/1] JSONL and [adcheck explain]
    renders one finding's why-chain with source context.

    {b Determinism.}  The journal is part of the work tier: its exported
    bytes must be identical at every [--jobs] value.  Two mechanisms
    guarantee that.  First, analyses running on pool workers record into
    a per-domain buffer ({!collect}) whose findings the orchestrator
    records in submission order — the same discipline applied to
    telemetry counters and histograms.  Second, {!findings} returns
    the journal in a canonical order (sorted by content, deduplicated by
    id), so even entries recorded outside any buffer (for example by a
    pipelined audit phase) cannot perturb the export.  Recording the
    same finding twice is harmless by construction: equal content means
    equal id, and the journal deduplicates. *)

(** One link of a witness chain: a labelled fact, optionally anchored to
    a source location. *)
type step = {
  w_label : string;  (** e.g. "decl", "use", "call", "cfg", "scenario" *)
  w_loc : Cfront.Loc.t option;
  w_detail : string;
}

type finding = {
  f_id : string;  (** stable content-derived id, e.g. [F-1a2b3c4d5e6f7081] *)
  f_kind : string;  (** "misra" | "dataflow" | "interproc" | "coverage" | "metric" *)
  f_analysis : string;  (** rule id or analysis name *)
  f_loc : Cfront.Loc.t option;  (** primary location, when one exists *)
  f_message : string;
  f_witness : step list;  (** never empty for recorded findings *)
}

(** Build a step; [detail] is a format string. *)
val step : ?loc:Cfront.Loc.t -> string -> ('a, unit, string, step) format4 -> 'a

(** Build a finding; the id is derived from the full content (kind,
    analysis, location, message and every witness step), so equal
    content always yields an equal id across runs, jobs values and
    processes. *)
val make :
  kind:string ->
  analysis:string ->
  ?loc:Cfront.Loc.t ->
  message:string ->
  witness:step list ->
  unit ->
  finding

(* ------------------------------------------------------------------ *)
(* The journal sink                                                    *)
(* ------------------------------------------------------------------ *)

(** Append to the journal (the active per-domain buffer when one is
    installed, the process-global sink otherwise).  A finding that
    reaches the process-global sink also bumps the
    ["provenance.findings.<kind>"] counter while telemetry is enabled;
    one recorded into a buffer counts nothing until it is recorded
    again outside it, so each finding counts once. *)
val record : finding -> unit

(** [collect f] runs [f] with a fresh per-domain buffer installed and
    returns its findings in record order, without touching the global
    sink — the worker-side half of the deterministic merge; the
    orchestrator then {!record}s them in order.  Buffers nest: an inner
    [collect] shadows the outer one. *)
val collect : (unit -> 'a) -> 'a * finding list

(** Clear the global journal (buffers are unaffected). *)
val reset : unit -> unit

(** The journal in canonical order: sorted by (kind, analysis, location,
    message, id), each compared with [String.compare] and a location as
    its [Loc.to_string] (["-"] for none), then deduplicated by id.  This
    is the export order.  The sort is stable over record order, so of
    equal findings the first recorded is kept.  Dedup compares
    neighbours: equal content means an equal id and an equal sort key,
    so duplicates sort next to each other.  Two different contents
    whose 64-bit ids collide are both kept (unless their other key
    fields tie too), where a table of seen ids would have dropped the
    later one.

    The first export after a {!record} sorts the journal in place and
    keeps it sorted; until the next {!record} or {!reset}, [findings],
    {!find}, {!journal} and {!write_journal} walk it without sorting
    again.  The export allocates the output list, one copy of the
    journal's array and the sort's merge buffer, and nothing per
    comparison. *)
val findings : unit -> finding list

(** [compare_loc a b] orders [a] and [b] exactly as [String.compare]
    orders [Loc.to_string a] and [Loc.to_string b], without building
    either string: line 10 sorts before line 9, and file ["a.c"] sorts
    after ["a.c.x"] because ':' sorts after '.'. *)
val compare_loc : Cfront.Loc.t -> Cfront.Loc.t -> int

(** Look up by exact id, or by a unique id prefix of at least 4
    characters.  [Error] explains the failure (unknown / ambiguous). *)
val find : string -> (finding, string) result

(* ------------------------------------------------------------------ *)
(* adcheck-evidence/1                                                  *)
(* ------------------------------------------------------------------ *)

(** The journal as [adcheck-evidence/1] JSONL: a header line carrying
    the schema and finding count, then one canonical JSON object per
    finding.  Byte-identical at every [--jobs] value under the tick
    clock. *)
val journal : unit -> string

(** Write {!journal} to [path], one line at a time, without building the
    whole string first.  @raise Sys_error as [open_out] does. *)
val write_journal : path:string -> unit -> unit

(** Render one finding's full why-chain as human-readable text.
    [source] maps a file path to its content; when it returns [Some],
    witness locations are shown with a source excerpt and caret. *)
val explain : ?source:(string -> string option) -> finding -> string
