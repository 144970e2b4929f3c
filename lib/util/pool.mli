(** Fixed-size domain pool for CPU-parallel analysis stages.

    A pool owns [jobs] worker domains fed from a shared FIFO queue
    ([Mutex]/[Condition], no dependencies beyond the stdlib).  Work is
    submitted as thunks and collected through futures; {!map_chunked}
    builds the common fan-out/fan-in shape on top and always preserves
    input order, so parallel callers produce byte-identical results to
    the sequential code path.

    Concurrency policy for the analysis pipeline:
    - parallelism is *configuration*, never semantics: every parallel
      call site must have an exact sequential fallback at [jobs = 1]
      (the oracle the differential tests compare against);
    - tasks must not mutate shared state — results are merged on the
      caller in input order (see {!Telemetry.parallel_map} for the
      counter-merging veneer).

    The process-wide default worker count comes from the [ADCHECK_JOBS]
    environment variable and the [--jobs] CLI flag via
    {!set_default_jobs}; the shared pool in {!global} is (re)built
    lazily from that default. *)

type t

(** [create ~jobs] spawns [jobs] worker domains (clamped to [1, 128]). *)
val create : jobs:int -> t

(** Worker count the pool was created with. *)
val jobs : t -> int

(** Signal workers to exit once the queue drains and join them.
    Idempotent.  Submitting to a shut-down pool raises
    [Invalid_argument]. *)
val shutdown : t -> unit

(* ------------------------------------------------------------------ *)
(* Submit / await                                                      *)
(* ------------------------------------------------------------------ *)

type 'a future

(** Enqueue a task.  If called from inside a pool worker the task runs
    inline instead (the nested-submit deadlock guard: a saturated pool
    whose workers block on their own sub-tasks would never drain). *)
val submit : t -> (unit -> 'a) -> 'a future

(** Block until the task finishes.  Re-raises the task's exception (with
    its original backtrace) if it failed. *)
val await : 'a future -> 'a

(** Await every future, returning results in submission order — the
    fan-in half of the future-per-phase pattern (the pipelined audit
    submits independent phases from the main domain and joins here).
    Re-raises the first listed failure. *)
val await_all : 'a future list -> 'a list

(** True while executing on one of the pool's worker domains. *)
val inside_worker : unit -> bool

(* ------------------------------------------------------------------ *)
(* Order-preserving parallel map                                       *)
(* ------------------------------------------------------------------ *)

(** [map_chunked pool f xs] applies [f] to every element of [xs] across
    the pool and returns the results in input order.  Elements are
    grouped into contiguous chunks of [chunk_size] (default: spread over
    [4 * jobs] tasks) so per-task overhead amortizes over tiny work
    items.  The first failing element's exception is re-raised. *)
val map_chunked : ?chunk_size:int -> t -> ('a -> 'b) -> 'a list -> 'b list

(* ------------------------------------------------------------------ *)
(* Process-wide default                                                *)
(* ------------------------------------------------------------------ *)

(** Default worker count: the last {!set_default_jobs}, else
    [ADCHECK_JOBS], else 1 (strictly sequential). *)
val default_jobs : unit -> int

(** Override the default (the [--jobs] flag).  Changing the value
    shuts down the current global pool; the next {!global} rebuilds it. *)
val set_default_jobs : int -> unit

(** The shared pool at the current default, or [None] when the default
    is 1 — callers use [None] to select their exact sequential path. *)
val global : unit -> t option

(* ------------------------------------------------------------------ *)
(* Flight-recorder instrumentation                                     *)
(* ------------------------------------------------------------------ *)

(** Install the microsecond clock the instrumentation reads.  The
    telemetry layer installs the {e wall} clock here — never its
    pluggable tick clock: pool metrics are runtime-tier, and a pool
    clock read on a worker domain under the tick clock would perturb
    the work-tier timed regions running there.  Defaults to a constant
    0. *)
val set_clock : (unit -> float) -> unit

(** Open/close the recording gate.  Closed (the default), submit and
    worker paths pay a single boolean test and make no clock reads —
    the jobs=1 oracle never builds a pool, and a jobs>1 run with the
    gate closed is observationally identical to one without metrics. *)
val set_metrics : bool -> unit

type stats = {
  st_jobs : int;
  st_submitted : int;  (** tasks handed to {!submit} *)
  st_completed : int;
  st_inline : int;  (** nested submits run inline on a worker *)
  st_workers : (int * int * float) list;
      (** per worker domain: (id, tasks run, busy microseconds); idle
          time is [elapsed - busy] at the consumer's choice of horizon *)
  st_queue_wait : Histogram.t;  (** enqueue -> dequeue, microseconds *)
  st_task_run : Histogram.t;  (** dequeue -> completion, microseconds *)
  st_since_us : float;  (** clock reading at pool creation *)
}

(** A snapshot of the running global pool's counters and latency
    histograms (copies), without creating a pool. *)
val global_stats : unit -> stats option
