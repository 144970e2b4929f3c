(** Dependency-free instrumentation: monotonic-clock spans, counters,
    gauges, histograms, runtime (GC/pool) telemetry, and exporters —
    the flight recorder.

    The library keeps one process-global, mutex-guarded sink.  All
    recording entry points are no-ops until {!set_enabled}[ true], so
    instrumented hot paths pay a single boolean test when telemetry is
    off.  Three exporters read the sink: {!chrome_trace} emits Chrome
    trace-event JSON (loadable in [chrome://tracing] / Perfetto),
    {!metrics_json} emits the machine-readable [adcheck-metrics/1]
    record ([adcheck bench-diff] consumes it), and {!render_stats}
    prints summary tables via {!Util.Table}.

    Metric names split into two tiers.  Work-tier data (everything not
    prefixed ["pool."], ["gc."] or ["phase."]) must be byte-identical
    across [--jobs] values under the tick clock — that is the
    differential-testing oracle.  Runtime-tier data legitimately varies
    with scheduling and lives only in the "runtime" section of the
    metrics export.

    The clock is pluggable so tests can make every timestamp
    deterministic ({!install_tick_clock}). *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(** Current time in microseconds from the active clock. *)
val now_us : unit -> float

(** Deterministic test clock: each reading advances by one microsecond
    starting from 0 — per domain.  Giving every domain its own tick
    counter makes a timed region's duration a pure function of
    the clock reads inside the region on its own domain, so
    attributed-timing histogram samples are identical at every [--jobs]
    value.  Spans get an independent tick stream: span creation is
    suppressed on buffering workers, so if spans consumed work-tier
    ticks, a timed body that opens a span would measure differently
    sequentially than on a worker. *)
val install_tick_clock : unit -> unit

(** Restore the default wall clock. *)
val use_wall_clock : unit -> unit

(* ------------------------------------------------------------------ *)
(* Sink control                                                        *)
(* ------------------------------------------------------------------ *)

(** Opens/closes the sink; also mirrors the switch into
    {!Util.Pool.set_metrics}, so pool instrumentation records exactly
    when the flight recorder does. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Drop every recorded event, counter, gauge, histogram and GC phase
    record (leaves the enabled flag and clock untouched). *)
val reset : unit -> unit

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type attr = string * string

(** An open span handle; {!end_span} closes it.  Handles of a disabled
    sink are inert. *)
type span

val start_span : ?cat:string -> ?attrs:attr list -> string -> span
val add_attr : span -> string -> string -> unit
val end_span : ?attrs:attr list -> span -> unit

(** [with_span name f] runs [f] inside a span; the span is closed even
    if [f] raises. *)
val with_span : ?cat:string -> ?attrs:attr list -> string -> (unit -> 'a) -> 'a

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

val incr : ?by:int -> string -> unit
val add : string -> int -> unit

val set_gauge : string -> float -> unit

(** Keep the maximum of all reported values. *)
val max_gauge : string -> float -> unit

(* ------------------------------------------------------------------ *)
(* Histograms and attributed timing                                    *)
(* ------------------------------------------------------------------ *)

(** Record a sample into the named {!Util.Histogram} (buffered on the
    active per-domain collection when one is installed, else the global
    sink).  Use integer-valued samples for work-tier metrics so the
    float [sum] stays exact under any merge association. *)
val observe : string -> float -> unit

(** [timed name f] runs [f] and records its duration (microseconds from
    the active clock) as a sample of histogram [name] — the attributed
    per-rule / per-function / per-scenario timing hook.  Place timed
    regions innermost (inside spans): under the tick clock a region with
    no nested clock reads measures exactly one tick on any domain, so
    the samples are jobs-independent. *)
val timed : string -> (unit -> 'a) -> 'a

(** GC cost of a named phase: the delta of [Gc.minor_words ()] and of
    the other [Gc.quick_stat] fields around the body, summed when the
    phase repeats. *)
type gc_delta = {
  gd_minor_words : float;
  gd_promoted_words : float;
  gd_major_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
  gd_compactions : int;
}

(** [gc_phase name f] runs [f], accumulating its GC delta under [name]
    and its wall time as a ["phase.<name>_us"] histogram sample.  Both
    are runtime-tier (excluded from the cross-jobs oracle): phase wall
    time differs between the sequential path (spans read the clock) and
    the pooled path (spans suppressed on workers). *)
val gc_phase : string -> (unit -> 'a) -> 'a

(** True for runtime-tier metric names (["pool."], ["gc."] or
    ["phase."] prefixed): excluded from the deterministic sections of
    {!metrics_json}. *)
val is_runtime_metric : string -> bool

(* ------------------------------------------------------------------ *)
(* Per-domain aggregation and parallel mapping                         *)
(* ------------------------------------------------------------------ *)

(** Order-preserving parallel map over {!Util.Pool.global}.  Each
    element's counters and histogram samples are buffered on its worker
    domain and merged on the calling domain in input order (counter
    merge is integer addition and histogram merge is per-bucket
    addition, both commutative and associative), so the final sink
    state is identical to a sequential run.  When the pool default is 1 job this *is* [List.map f xs] —
    the exact sequential oracle the differential tests compare
    against. *)
val parallel_map : ?chunk_size:int -> ('a -> 'b) -> 'a list -> 'b list

(* ------------------------------------------------------------------ *)
(* Reading the sink                                                    *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_start_us : float;
  ev_dur_us : float;
  ev_depth : int;  (** nesting depth at the time the span opened *)
  ev_tid : int;
      (** domain id the span ran on — the pipelined audit phases record
          their spans from worker domains, so a Chrome trace of a
          [--jobs N] run shows the phases on separate rows, overlapping
          in time *)
  ev_attrs : attr list;
}

(** Completed spans, sorted by start time then depth (parents first). *)
val events : unit -> event list

val counter : string -> int

(** All counters, sorted by name. *)
val counters : unit -> (string * int) list

(** Snapshot/diff for attributing counters to a region of the run (the
    bench harness snapshots around each experiment so one experiment's
    JSON record never absorbs counters contributed by another). *)
type counter_snapshot

val snapshot_counters : unit -> counter_snapshot

(** Counters that changed since the snapshot, with their deltas,
    sorted by name. *)
val counters_since : counter_snapshot -> (string * int) list

val gauges : unit -> (string * float) list

(** Counters under [prefix], prefix stripped, largest first, top [n]. *)
val top_counters : prefix:string -> int -> (string * int) list

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(** Chrome trace-event JSON: complete ("ph":"X") events with timestamps
    rebased to the earliest span and sorted by (ts, tid, name) so equal
    workloads serialize identically; counters and gauges ride along
    under "otherData". *)
val chrome_trace : unit -> string

val write_chrome_trace : path:string -> unit

(** The [adcheck-metrics/1] record: schema tag, work-tier counters and
    histograms (deterministic across [--jobs] under the tick clock),
    and — unless [runtime:false] — a "runtime" section with the jobs
    value, gauges, runtime-tier histograms, per-phase GC deltas and
    pool stats.  [runtime:false] is the byte-comparable differential
    oracle. *)
val metrics_json : ?runtime:bool -> unit -> string

(** Write {!metrics_json}[ ()] (runtime section included) to [path]. *)
val write_metrics : path:string -> unit -> unit

(** Summary tables: span aggregation, counters, histograms (hottest
    total first — the "which rule/scenario is hot" view), interpreter
    hot-function profile, gauges — empty tables are omitted. *)
val stats_tables : unit -> Util.Table.t list

val render_stats : unit -> string

(** JSON string escaping (shared with the bench JSON writer). *)
val json_escape : string -> string
