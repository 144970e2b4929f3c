(** Persistent content-addressed artifact store.

    Analysis artifacts are keyed by a FNV-1a hash of their inputs —
    file path + content hash + whatever analysis context the producer
    folds in.  The kinds: per-file type names ([types]) and parse trees
    ([parse]), per-file dataflow fixpoints ([dataflow]), the whole-tree
    interproc summary ([interproc]) and core metric record ([metrics]),
    per-rule MISRA journal findings ([misra]), compiled bytecode programs
    ([bytecode]), coverage phases and scenario batches ([covphase],
    [scenario]), and each project's path list ([manifest], see
    {!sweep}).  Because every key folds the content it depends on, a
    stale artifact can never hit: an edit needs no invalidation, and
    reverting it finds the original artifacts again.  Each artifact is
    serialized with [Marshal] under a header that names the schema salt,
    the kind, the key, the payload length and digest, and an optional
    {e owner} path whose departure from the tree sweeps it.  A lookup
    re-validates every header field and the payload digest; any mismatch
    (truncation, garbage, a salt from another tool version) is logged,
    counted as corrupt, deleted and reported as a miss, so a damaged
    cache can slow an audit down but never change its output.

    The exactness contract is the caller's: an artifact may only be
    served where recomputing it would produce byte-identical results.
    The differential harness in [test_cache_diff] locks that contract —
    cold, warm and incremental-after-edit runs must agree on report
    bytes, evidence journals, collector fingerprints and finding ids.

    The store is process-global by convention ([set_global]/[global]):
    analysis libraries consult [global ()] so that a single [--cache DIR]
    flag threads through every layer without signature churn. *)

(** 64-bit FNV-1a over the bytes of [s], rendered as 16 lowercase hex
    digits — the same discipline provenance uses for finding ids. *)
val fnv1a64 : string -> string

type t

(** Monotone per-store counters (process lifetime, all domains). *)
type stats = {
  hits : int;
  misses : int;
  stores : int;
  corrupt : int;  (** artifacts that failed header/digest validation *)
  invalidated : int;  (** artifacts removed by {!remove_owned} *)
}

(** Open (creating if needed) a store rooted at [dir].  A VERSION file
    carrying another tool version's salt first wipes all artifacts and any
    temp file a killed writer left.  Raises [Sys_error] if the directory
    cannot be created or written. *)
val open_dir : string -> t

val dir : t -> string
val stats : t -> stats

(** Derive an artifact key from the version salt, the artifact kind and
    the ordered input parts.  Equal inputs give equal keys across runs,
    jobs values and processes. *)
val key : kind:string -> string list -> string

(** [find t ~kind ~key] returns the stored artifact, or [None] on a miss
    or on a corrupt entry (which is deleted and counted).  The caller
    must read the value at the type it was stored at — pair every [find]
    with the [store] of the same [kind]. *)
val find : t -> kind:string -> key:string -> 'a option

(** Store an artifact (atomic write-then-rename through a temp file
    named after the process id, so processes sharing the store never
    write the same temp file).  [owner] names the source path whose
    departure from the tree sweeps the artifact; artifacts without an
    owner live until the store is wiped.  Serialization or filesystem
    failures are logged and skipped — the cache never fails the
    computation it memoizes. *)
val store : t -> ?owner:string -> kind:string -> key:string -> 'a -> unit

(** [memo t ~kind ~key f] is [find] else [f () |> store], with no
    owner. *)
val memo : t -> kind:string -> key:string -> (unit -> 'a) -> 'a

(** Remove every artifact owned by one of [paths]; returns the number
    removed (also counted as invalidated and added to the
    [cache.evict] telemetry counter).  Because keys are
    content-addressed this is hygiene, never correctness: callers sweep
    paths that left the tree for good, so that reverting an edit still
    finds the original artifacts warm. *)
val remove_owned : t -> string list -> int

(** [sweep t ~name paths] records [paths] as project [name]'s tree and
    removes ({!remove_owned}) every artifact owned by a path of the
    previously recorded tree that [paths] lacks.  The list is written
    only when it differs from the recorded one, so a run over an
    unchanged path set stores nothing.  Call it before computing any
    artifact of the new tree. *)
val sweep : t -> name:string -> string list -> unit

(** Process-global store consulted by the analysis libraries. *)
val set_global : t option -> unit

val global : unit -> t option

(** Run [f] with the global store bound to [c], restoring [None] after. *)
val with_global : t -> (unit -> 'a) -> 'a
