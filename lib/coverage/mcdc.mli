(** Modified Condition/Decision Coverage bookkeeping.

    For each decision the collector retains the deduplicated set of
    observed test vectors: each leaf condition's truth value ([None] when
    short-circuit skipped it) plus the decision outcome.  A condition is
    covered when an independence pair exists under short-circuit
    masking: a condition that short-circuit skipped agrees with any
    value (the practical discipline for C's lazy operators). *)

type vector = { conds : (int * bool option) list; outcome : bool }

type decision_log = { mutable vectors : vector list }

type t = { logs : (int, decision_log) Hashtbl.t }

val create : unit -> t

val record :
  t -> decision_eid:int -> conds:(int * bool option) list -> outcome:bool -> unit

(** Set-union merge of [src]'s vectors into [into].  Union is commutative
    and associative on the deduplicated vector sets, so merging
    per-scenario logs in any partition or order yields the same set; all
    scoring is order-blind (existential over the set). *)
val merge_into : into:t -> t -> unit

(** Canonical state view: decisions sorted by eid, vector sets sorted
    structurally.  Two logs are observationally identical iff their
    canonical views are equal — the merge property tests compare these. *)
val canonical : t -> (int * vector list) list

(** For an uncovered condition, a starting point for the missing test:
    [(value to force the condition to, an observed base vector to
    replicate)].  [None] when the decision never executed. *)
val suggest_vector :
  t -> decision_eid:int -> cond_id:int -> (bool * vector) option

(** [(covered, total)] conditions for one decision. *)
val decision_score : t -> decision_eid:int -> conditions:int list -> int * int
