(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every experiment in this repository must be bit-reproducible, so
    nothing uses [Stdlib.Random].  [split] derives an independent stream,
    which lets the corpus generator hand a private stream to every
    module/file/function without cross-contamination when one part of the
    generation changes. *)

type t

val create : int -> t

(** An independent stream derived from (and advancing) this one. *)
val split : t -> t

(** [int t bound] draws uniformly from [0, bound).  Requires [bound > 0]. *)
val int : t -> int -> int

(** [range t lo hi] draws uniformly from the inclusive range [lo, hi]. *)
val range : t -> int -> int -> int

(** [float t bound] draws uniformly from [0, bound). *)
val float : t -> float -> float

val bool : t -> bool

(** [chance t p] is true with probability [p]. *)
val chance : t -> float -> bool

(** Uniform draw from a non-empty list.  @raise Invalid_argument on []. *)
val pick : t -> 'a list -> 'a

val pick_array : t -> 'a array -> 'a

(** Draw from [(weight, value)] pairs with probability proportional to
    weight.  Weights must be non-negative with a positive sum. *)
val weighted : t -> (float * 'a) list -> 'a

(** Gaussian draw via Box-Muller. *)
val gaussian : t -> mean:float -> stddev:float -> float

(** Fisher-Yates shuffle of a copy of the list. *)
val shuffle : t -> 'a list -> 'a list
