(** Immutable dense bitsets over small integer domains: the lattice
    every dataflow fixpoint in the repository solves over.  Sets of
    different word lengths compare and combine as if padded with zero
    words, so {!empty} is the bottom of every domain. *)

type t

val empty : t
val mem : t -> int -> bool

(** The set of the given (non-negative) elements. *)
val of_list : int list -> t

val equal : t -> t -> bool
val union : t -> t -> t

(** [apply x ~kill ~gen] is [(x \ kill) ∪ gen], in one pass; [x] itself
    when both are empty. *)
val apply : t -> kill:t -> gen:t -> t

(** {!Framework.LATTICE}: [bottom] is {!empty}, [join] is {!union}. *)

val bottom : t
val join : t -> t -> t
