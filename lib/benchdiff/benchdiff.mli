(** Performance-record comparison: the [adcheck bench-diff] regression
    gate.

    Loads two machine-readable performance records — [adcheck-bench/1]
    (the bench harness's per-experiment wall times and counter
    snapshots) or [adcheck-metrics/1] (the flight recorder's counters
    and histograms) — and compares them under the gate's policy:

    - {b counters are exact}: any difference in a counter value, a
      value histogram's sample count / zero count / bucket contents /
      integer sum, a timing histogram's sample count, or the key sets
      themselves is a finding.  These are deterministic at a fixed seed
      and scale, so any drift is a behaviour change, not noise.
    - {b latencies are thresholded}: wall times and timing-histogram
      ("*_us") time sums compare with a relative tolerance
      ([--fail-on-regress PCT]) and an absolute floor, so scheduler
      noise below the floor never fails the gate.  Timing-histogram
      bucket contents are wall-clock noise and are not compared at all.
      Only regressions (new slower than old) count; improvements pass
      silently.

    A self-compare of any record yields no findings — [make check]
    runs exactly that as a schema sanity gate.  Given several new
    records ({!diff_runs}), the gate takes each latency's median across
    them, so one slow run does not fail it. *)

(** Minimal JSON reader (no external dependency); shared by the tests
    to parse the exporters' output back. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  (** @raise Parse_error on malformed input. *)
  val parse : string -> t

  val member : string -> t -> t option
end

(** One comparable record, uniform over both schemas. *)
type record = {
  r_schema : string;
  r_counters : (string * int) list;
      (** exact-match series, sorted by key: counters, histogram
          counts/zeros, bucket contents ("h/bucket\[i\]" keys),
          per-experiment counter snapshots ("name\@jobs/ctr" keys) *)
  r_latencies : (string * float * float) list;
      (** thresholded series, sorted: (key, value, absolute floor in
          the value's own unit) *)
}

(** Parse a record file.  [Error] carries a human-readable reason
    (unreadable file, malformed JSON, unknown schema). *)
val load : string -> (record, string) result

type finding =
  | Schema_mismatch of string * string  (** old, new *)
  | Counter_changed of string * int * int  (** key, old, new *)
  | Series_missing of string * string  (** side ("old"/"new"), key *)
  | Latency_regression of string * float * float * float
      (** key, old, new, percent increase *)

(** [diff ~fail_on_regress_pct old_r new_r] returns all findings, exact
    mismatches first.  Latency keys present in only one record are not
    findings (experiments legitimately come and go between runs);
    counter keys are. *)
val diff : fail_on_regress_pct:float -> record -> record -> finding list

(** [diff_runs ~fail_on_regress_pct old_r runs] gates several runs of
    the same record: counters must match exactly in every run (each
    distinct finding reported once), and each latency is compared by its
    median across the runs that have it.  [diff_runs ~fail_on_regress_pct
    old_r [ r ]] is [diff ~fail_on_regress_pct old_r r].
    @raise Invalid_argument on an empty [runs]. *)
val diff_runs : fail_on_regress_pct:float -> record -> record list -> finding list

(** No findings. *)
val ok : finding list -> bool

(** One line per finding plus a verdict line. *)
val render : finding list -> string
