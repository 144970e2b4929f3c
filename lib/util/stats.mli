(** Descriptive-statistics helpers used by metric reports and the
    benchmark harness. *)

val mean : float list -> float

(** Minimum/maximum; 0.0 on the empty list. *)
val minimum : float list -> float

val maximum : float list -> float

(** Sample standard deviation; 0.0 for fewer than two points. *)
val stddev : float list -> float

(** [percentile p xs] with [p] in [0,100], nearest-rank on sorted data. *)
val percentile : float -> float list -> float

val median : float list -> float
val sum_int : int list -> int
val sum_float : float list -> float

(** Histogram of integer data into inclusive [(lo, hi)] buckets; values
    outside every bucket are dropped. *)
val histogram : buckets:(int * int) list -> int list -> ((int * int) * int) list

(** Geometric mean; all inputs must be positive.  0.0 on the empty list. *)
val geomean : float list -> float

val clamp : lo:float -> hi:float -> float -> float
