(** The process-wide scheduler for data-parallel execution.

    One domain budget for the whole process, sized against
    [Domain.recommended_domain_count ()] (override with the
    [STANDOFF_DOMAIN_BUDGET] environment variable, or
    {!set_domain_budget}): at most [budget - 1] worker domains ever
    exist, shared by every handle.  A {!t} is a lightweight handle
    whose [jobs] is a {e per-batch max-parallelism cap} — [jobs = n]
    means a batch submitted through the handle occupies at most [n]
    domains (the submitting domain always participates), and
    [jobs = 1] never touches the scheduler at all: every entry point
    degenerates to a plain sequential loop on the caller's domain,
    making the sequential behaviour bit-identical to code that never
    heard of the scheduler.

    A parallel batch joins one list of open batches with
    [min cap n - 1] helper slots, bounded by the live workers.  Idle
    workers take slots, and so does a domain waiting for its own batch
    (which keeps helping other batches, newest first — what makes
    nested submission deadlock-free); every domain driving a batch
    claims its tasks through one atomic counter.  A batch leaves the
    list when its slots or its unclaimed tasks run out, so no batch
    ever has more than its cap of tasks in flight.  Caps inherit: a
    task running under a batch capped at [c] that submits its own
    batch runs it at [min c jobs'], so recursive sweeps cannot
    oversubscribe the budget by multiplying caps.  Batch completion
    never depends on worker availability — with a zero-worker budget
    the submitting domain drains the batch alone.

    Exceptions raised by tasks are caught per task and re-raised on the
    submitting domain once the batch has drained, lowest task index
    first — a [Timing.Deadline_exceeded] escaping a chunk therefore
    surfaces to the caller exactly like in sequential code.

    Scheduler observability lives in {!Standoff_obs.Metrics}:
    [standoff_pool_tasks_total], [standoff_pool_queue_depth],
    [standoff_pool_queue_wait_seconds],
    [standoff_pool_cap_clamps_total], [standoff_pool_workers], and
    per-worker [standoff_pool_worker_busy{worker="i"}] gauges. *)

type t

(** [create ~jobs] makes a handle capping batches at [jobs] concurrent
    tasks ([jobs >= 1]).  Handles are two words; workers are global
    and spawned lazily on the first parallel submission.
    @raise Invalid_argument if [jobs < 1]. *)
val create : jobs:int -> t

(** [jobs t] is the handle's parallelism cap. *)
val jobs : t -> int

(** [domain_budget ()] is the process domain budget: the total number
    of domains (workers + the main domain + reserved external domains)
    execution is sized against. *)
val domain_budget : unit -> int

(** [set_domain_budget n] resizes the budget (clamped to [>= 1]).
    Takes effect on the next submission; live workers beyond the new
    target retire at the next {!park}. *)
val set_domain_budget : int -> unit

(** [reserve_domains n] registers [n] externally owned domains (the
    HTTP server's connection workers) against the budget: the
    scheduler spawns at most [budget - 1 - reserved] workers, so
    server workers and engine parallelism share cores instead of
    multiplying.  Balanced by {!release_domains}. *)
val reserve_domains : int -> unit

(** [release_domains n] returns [n] reserved domains to the budget. *)
val release_domains : int -> unit

(** [max_parallelism ()] is the parallelism left for query execution:
    [max 1 (budget - reserved)].  The engine's adaptive jobs choice
    clamps to it. *)
val max_parallelism : unit -> int

(** [worker_count ()] is the number of live scheduler worker domains
    (for tests and diagnostics). *)
val worker_count : unit -> int

(** [current_cap ()] is the effective cap of the batch the calling
    domain is currently executing a task of, or [None] outside any
    batch.  Nested {!run_all} calls clamp their handle's cap to it. *)
val current_cap : unit -> int option

(** [run_all t tasks] runs every task to completion, at most
    [min (jobs t) inherited-cap] concurrently.  The calling domain
    participates.  The first exception (by task index) is re-raised
    after all tasks have finished or failed. *)
val run_all : t -> (unit -> unit) array -> unit

(** [chunk_count t ?min_chunk ~n ()] is the number of contiguous
    chunks [parallel_chunks] would split a length-[n] input into:
    [min effective-cap (n / min_chunk)], at least 1.  [min_chunk]
    defaults to [1]. *)
val chunk_count : t -> ?min_chunk:int -> n:int -> unit -> int

(** [parallel_chunks t ?min_chunk ~n f] partitions the index range
    [0, n) into {!chunk_count} near-equal contiguous chunks, applies
    [f ~chunk ~lo ~hi] to each (in parallel when more than one chunk),
    and returns the results {e in chunk order} — callers that
    concatenate them preserve any order the input had.  With one chunk
    the call runs directly on the caller's domain. *)
val parallel_chunks :
  t -> ?min_chunk:int -> n:int -> (chunk:int -> lo:int -> hi:int -> 'a) -> 'a array

(** [map_array t f a] applies [f] to every element of [a] (one task per
    element) and returns the results in input order. *)
val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

(** [park ()] asks the scheduler's worker domains to exit and joins
    them.  Safe concurrently with submissions: a batch submitted
    during the teardown runs on its submitting domain alone, and
    workers respawn on the next submission afterwards.  Idempotent. *)
val park : unit -> unit
