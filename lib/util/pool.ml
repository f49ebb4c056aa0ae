(* One process-wide scheduler.  The whole process draws from a single
   domain budget sized against [Domain.recommended_domain_count ()]:
   at most [budget - 1] worker domains ever exist, no matter how many
   engines, servers, or jobs settings are in play.  A [t] is a
   lightweight *handle* whose [jobs] is a per-batch max-parallelism
   cap, not a worker count — two handles with different caps share
   the same workers.

   A batch is an array of tasks plus an atomic claim counter.  A
   parallel batch enters one list of open batches with [min cap n - 1]
   helper slots (bounded by the live workers); an idle worker, or a
   submitter waiting out its own batch, takes a slot and claims tasks
   through the counter until none are left.  The batch leaves the list
   when its slots or its unclaimed tasks run out.  Completion never
   depends on a helper turning up: the submitting domain claims tasks
   too and can drain its batch alone.  That property is what makes the
   scheduler deadlock-free under nesting, teardown, and a zero-worker
   budget alike.

   Caps inherit: a task running under a batch capped at [c] that
   submits its own batch runs it at [min c jobs'] — recursive sweeps
   cannot oversubscribe the budget by multiplying caps. *)

module Metrics = Standoff_obs.Metrics

(* Registered at module init, so the pool metrics appear in exposition
   (at zero) even in a process that never runs parallel work. *)
let m_tasks_total =
  Metrics.counter "standoff_pool_tasks_total"
    ~help:"Tasks drained from the scheduler"

let m_queue_depth =
  Metrics.gauge "standoff_pool_queue_depth"
    ~help:"Tasks submitted to the scheduler and not yet started"

let m_queue_wait =
  Metrics.histogram "standoff_pool_queue_wait_seconds"
    ~buckets:Metrics.duration_buckets
    ~help:"Time tasks spent queued before a domain picked them up"

let m_cap_clamps_total =
  Metrics.counter "standoff_pool_cap_clamps_total"
    ~help:"Batches whose requested parallelism was clamped to the submitter's inherited cap"

let m_workers_live =
  Metrics.gauge "standoff_pool_workers"
    ~help:"Scheduler worker domains currently live"

(* Memoized by the registry: one gauge per worker slot. *)
let busy_gauge i =
  Metrics.gauge "standoff_pool_worker_busy"
    ~labels:[ ("worker", string_of_int i) ]
    ~help:"1 while this scheduler worker is running batch tasks"

(* ------------------------------------------------------------------ *)
(* Handles                                                            *)

type t = { cap : int }

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { cap = jobs }

let jobs t = t.cap

(* ------------------------------------------------------------------ *)
(* Batches                                                            *)

type batch = {
  b_tasks : (unit -> unit) array;
  b_next : int Atomic.t;  (** claim counter; claims >= length are void *)
  b_remaining : int Atomic.t;
  b_errors : exn option array;
  b_cap : int;  (** the effective cap tasks of this batch run under *)
  mutable b_slots : int;  (** helper slots left; guarded by [sched.sm] *)
  b_m : Mutex.t;
  b_done : Condition.t;
  b_enqueued : float;  (** submit timestamp; 0.0 when metrics are off *)
}

(* The inherited cap of the running domain: [max_int] outside any
   batch, the batch's effective cap inside one. *)
let cap_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> max_int)

let current_cap () =
  match Domain.DLS.get cap_key with
  | c when c = max_int -> None
  | c -> Some c

(* ------------------------------------------------------------------ *)
(* The scheduler                                                      *)

(* Live domains are capped at ~128 by the runtime; leave headroom for
   server workers and the main domain. *)
let max_workers = 64

type sched = {
  sm : Mutex.t;
      (* guards [workers], [n_workers], [budget], [reserved], [open_]
         and every open batch's [b_slots]; [closing] is atomic so
         drain loops can poll it lock-free *)
  has_work : Condition.t;  (* signalled when a batch opens, and on park *)
  closing : bool Atomic.t;
  mutable workers : unit Domain.t list;
  mutable n_workers : int;
  mutable budget : int;
  mutable reserved : int;
  mutable open_ : batch list;
      (* batches with a helper slot left, newest first, so a nested
         batch is helped before the batch whose task is waiting on it *)
}

let env_budget () =
  match Sys.getenv_opt "STANDOFF_DOMAIN_BUDGET" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)
  | None -> None

let sched =
  {
    sm = Mutex.create ();
    has_work = Condition.create ();
    closing = Atomic.make false;
    workers = [];
    n_workers = 0;
    budget =
      (match env_budget () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()));
    reserved = 0;
    open_ = [];
  }

let domain_budget () =
  Mutex.lock sched.sm;
  let b = sched.budget in
  Mutex.unlock sched.sm;
  b

let set_domain_budget n =
  Mutex.lock sched.sm;
  sched.budget <- max 1 n;
  Mutex.unlock sched.sm

let reserve_domains n =
  if n > 0 then begin
    Mutex.lock sched.sm;
    sched.reserved <- sched.reserved + n;
    Mutex.unlock sched.sm
  end

let release_domains n =
  if n > 0 then begin
    Mutex.lock sched.sm;
    sched.reserved <- max 0 (sched.reserved - n);
    Mutex.unlock sched.sm
  end

let max_parallelism () =
  Mutex.lock sched.sm;
  let v = max 1 (sched.budget - sched.reserved) in
  Mutex.unlock sched.sm;
  v

let worker_count () =
  Mutex.lock sched.sm;
  let n = sched.n_workers in
  Mutex.unlock sched.sm;
  n

(* How many workers the budget allows right now.  Called under [sm]. *)
let worker_target () =
  min max_workers (max 0 (sched.budget - 1 - sched.reserved))

(* ------------------------------------------------------------------ *)
(* Running batches                                                    *)

let exec_task b i =
  Metrics.gauge_add m_queue_depth (-1);
  if b.b_enqueued > 0.0 then
    Metrics.observe m_queue_wait (Unix.gettimeofday () -. b.b_enqueued);
  Metrics.incr m_tasks_total;
  let saved = Domain.DLS.get cap_key in
  Domain.DLS.set cap_key b.b_cap;
  (try b.b_tasks.(i) () with e -> b.b_errors.(i) <- Some e);
  Domain.DLS.set cap_key saved;
  (* The release on this atomic publishes the (plain) error write; the
     submitter reads errors only after observing remaining = 0. *)
  if Atomic.fetch_and_add b.b_remaining (-1) = 1 then begin
    Mutex.lock b.b_m;
    Condition.broadcast b.b_done;
    Mutex.unlock b.b_m
  end

(* Claim and run tasks of [b] until none are left unclaimed.  Workers
   pass [stop_on_close:true] so a teardown only waits out the current
   task, not the whole batch — the batch still completes because its
   submitter never stops claiming. *)
let rec drive_batch ~stop_on_close b =
  if not (stop_on_close && Atomic.get sched.closing) then begin
    let i = Atomic.fetch_and_add b.b_next 1 in
    if i < Array.length b.b_tasks then begin
      exec_task b i;
      drive_batch ~stop_on_close b
    end
  end

(* Take a helper slot on the newest open batch with unclaimed tasks,
   dropping exhausted batches on the way.  Called under [sm].  A batch
   admits at most [min cap n - 1] helpers beside its submitter, each
   running one of its tasks at a time, so no batch ever has more than
   its cap in flight. *)
let take_slot () =
  let rec go = function
    | [] -> ([], None)
    | b :: rest when Atomic.get b.b_next >= Array.length b.b_tasks -> go rest
    | b :: rest ->
        b.b_slots <- b.b_slots - 1;
        ((if b.b_slots = 0 then rest else b :: rest), Some b)
  in
  let open_, taken = go sched.open_ in
  sched.open_ <- open_;
  taken

let worker_loop i () =
  let busy = busy_gauge i in
  let rec find () =
    Mutex.lock sched.sm;
    let rec next () =
      if Atomic.get sched.closing then None
      else
        match take_slot () with
        | Some b -> Some b
        | None ->
            Condition.wait sched.has_work sched.sm;
            next ()
    in
    let b = next () in
    Mutex.unlock sched.sm;
    match b with
    | None -> ()
    | Some b ->
        Metrics.gauge_set busy 1;
        drive_batch ~stop_on_close:true b;
        Metrics.gauge_set busy 0;
        find ()
  in
  find ()

(* Spawn workers up to the current target.  Called under [sm].  During
   a teardown ([closing]) nothing spawns: the submitting batch still
   completes solo, and workers respawn on the next submission. *)
let ensure_workers () =
  if not (Atomic.get sched.closing) then begin
    let tgt = worker_target () in
    while sched.n_workers < tgt do
      let i = sched.n_workers in
      sched.workers <- Domain.spawn (worker_loop i) :: sched.workers;
      sched.n_workers <- sched.n_workers + 1
    done;
    Metrics.gauge_set m_workers_live sched.n_workers
  end

let run_all t tasks =
  let n = Array.length tasks in
  if n = 0 then ()
  else begin
    let inherited = Domain.DLS.get cap_key in
    let cap = min t.cap inherited in
    if cap < t.cap then Metrics.incr m_cap_clamps_total;
    if cap <= 1 || n <= 1 then begin
      (* The strict sequential path: tasks run inline, and anything
         they submit inherits cap 1, so the whole subtree stays on
         this domain — bit-identical to code that never heard of the
         scheduler. *)
      Domain.DLS.set cap_key 1;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set cap_key inherited)
        (fun () -> Array.iter (fun f -> f ()) tasks)
    end
    else begin
      let b =
        {
          b_tasks = tasks;
          b_next = Atomic.make 0;
          b_remaining = Atomic.make n;
          b_errors = Array.make n None;
          b_cap = cap;
          b_slots = 0;
          b_m = Mutex.create ();
          b_done = Condition.create ();
          b_enqueued = (if Metrics.enabled () then Unix.gettimeofday () else 0.0);
        }
      in
      Metrics.gauge_add m_queue_depth n;
      (* Open the batch with one helper slot per extra domain it may
         occupy, bounded by live workers — with zero workers it never
         opens and the submitter simply drains it alone. *)
      Mutex.lock sched.sm;
      ensure_workers ();
      b.b_slots <- min (min cap n - 1) sched.n_workers;
      let opened = b.b_slots > 0 in
      if opened then begin
        sched.open_ <- b :: sched.open_;
        Condition.broadcast sched.has_work
      end;
      Mutex.unlock sched.sm;
      (* The submitting domain is a runner too: it always participates
         and can finish the batch with no worker help at all. *)
      drive_batch ~stop_on_close:false b;
      (* Every task is claimed, so the batch leaves the list now rather
         than holding its tasks until some helper's scan drops it. *)
      if opened then
        Mutex.protect sched.sm (fun () ->
            sched.open_ <- List.filter (fun b' -> b' != b) sched.open_);
      (* Tasks may still be running on helpers.  Help other open
         batches while waiting (the work-conserving property nested
         batches rely on), sleeping only when none has a slot left. *)
      let rec wait () =
        if Atomic.get b.b_remaining > 0 then
          match Mutex.protect sched.sm take_slot with
          | Some b' ->
              drive_batch ~stop_on_close:false b';
              wait ()
          | None ->
              Mutex.lock b.b_m;
              if Atomic.get b.b_remaining > 0 then
                Condition.wait b.b_done b.b_m;
              Mutex.unlock b.b_m;
              wait ()
      in
      wait ();
      Array.iter (function Some e -> raise e | None -> ()) b.b_errors
    end
  end

(* ------------------------------------------------------------------ *)
(* Chunked helpers                                                    *)

(* Chunking follows the *effective* cap, so a nested sweep does not
   split into more chunks than it may ever run concurrently.  Chunk
   boundaries are deterministic for a given count, and callers
   concatenate chunk results in order, so results never depend on the
   count chosen. *)
let effective_cap t = min t.cap (Domain.DLS.get cap_key)

let chunk_count t ?(min_chunk = 1) ~n () =
  if n <= 0 then 1
  else max 1 (min (effective_cap t) (n / max 1 min_chunk))

let chunk_bounds ~n ~chunks k =
  (* Near-equal contiguous chunks: the first [n mod chunks] get one
     extra element. *)
  let base = n / chunks and extra = n mod chunks in
  let lo = (k * base) + min k extra in
  let hi = lo + base + (if k < extra then 1 else 0) in
  (lo, hi)

let parallel_chunks t ?min_chunk ~n f =
  let chunks = chunk_count t ?min_chunk ~n () in
  if chunks = 1 then [| f ~chunk:0 ~lo:0 ~hi:n |]
  else begin
    let results = Array.make chunks None in
    run_all t
      (Array.init chunks (fun k () ->
           let lo, hi = chunk_bounds ~n ~chunks k in
           results.(k) <- Some (f ~chunk:k ~lo ~hi)));
    Array.map
      (function Some r -> r | None -> assert false (* run_all raised *))
      results
  end

let map_array t f a =
  let n = Array.length a in
  if effective_cap t = 1 || n <= 1 then Array.map f a
  else begin
    let results = Array.make n None in
    run_all t (Array.init n (fun i () -> results.(i) <- Some (f a.(i))));
    Array.map (function Some r -> r | None -> assert false) results
  end

(* ------------------------------------------------------------------ *)
(* Teardown                                                           *)

(* [ensure_workers] and [park] serialize on [sm], and spawning is
   refused while [closing] holds — so a concurrent submission during a
   teardown can never strand freshly spawned workers that observe
   [closing] and exit unjoined (the historic deadlock); it just runs
   its batch on the submitting domain and workers respawn on the next
   submission after the teardown completes. *)
let park () =
  Mutex.lock sched.sm;
  if sched.workers = [] then Mutex.unlock sched.sm
  else begin
    Atomic.set sched.closing true;
    Condition.broadcast sched.has_work;
    let ws = sched.workers in
    sched.workers <- [];
    sched.n_workers <- 0;
    Metrics.gauge_set m_workers_live 0;
    Mutex.unlock sched.sm;
    List.iter Domain.join ws;
    Mutex.lock sched.sm;
    Atomic.set sched.closing false;
    Mutex.unlock sched.sm
  end
