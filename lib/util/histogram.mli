(** Log-bucketed, mergeable sample distributions.

    The flight-recorder metric for latencies and per-item work: samples
    land in logarithmic buckets (about 19% relative resolution), so a
    histogram is a small integer map that merges by per-bucket count sum
    — commutative and associative, the same proof-obligation shape as
    {!Coverage.Collector.merge}.  Two consequences the telemetry layer
    relies on:

    - bucket contents are independent of observation *and* merge order,
      so per-domain histograms merged in submission order are identical
      to a sequential run (the jobs differential);
    - quantile estimates ({!p50} .. {!p99}) are pure functions of the
      bucket counts and the exact extrema, hence equally deterministic.

    Samples [<= 0] are counted in a dedicated zero bucket ([zeros]) and
    contribute the representative value [0] to quantiles. *)

type t

val create : unit -> t

(** Deep copy (snapshot for concurrent readers). *)
val copy : t -> t

(** Record one sample.  O(1). *)
val observe : t -> float -> unit

val count : t -> int

(** Samples [<= 0] (kept out of the log buckets). *)
val zeros : t -> int

val sum : t -> float

(** Exact observed extrema; [0] when empty. *)
val min_value : t -> float

val max_value : t -> float
val mean : t -> float

(** Sorted [(bucket index, count)] pairs; positive samples only. *)
val buckets : t -> (int * int) list

(** Inclusive-exclusive value range [lo, hi) of a bucket index. *)
val bucket_bounds : int -> float * float

(** [merge_into ~into src] adds [src]'s counts into [into]; [src] is
    unchanged.  Commutative and associative up to float-addition
    rounding in {!sum} (exact for integer-valued samples). *)
val merge_into : into:t -> t -> unit

(** Left-to-right merge into a fresh histogram; [merge [] ] is empty. *)
val merge : t list -> t

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float

(** Observational equality: counts, extrema and bucket contents (not
    [sum], which is subject to float-addition rounding). *)
val equal : t -> t -> bool
