(* The process-wide scheduler: one domain budget shared by every
   handle.  Covers the regressions this design fixed — the
   teardown/submission race and the per-jobs-count worker-set leak —
   plus cap inheritance for nested batches, the cap as a bound on
   tasks in flight, budget reservation, and exception propagation. *)

module Pool = Standoff_util.Pool

(* Every test leaves the scheduler parked and the budget restored, so
   tests cannot leak domains (or configuration) into each other. *)
let with_budget n f =
  let saved = Pool.domain_budget () in
  Pool.set_domain_budget n;
  Fun.protect
    ~finally:(fun () ->
      Pool.park ();
      Pool.set_domain_budget saved)
    f

(* ------------------------------------------------------------------ *)
(* Correctness of the batch machinery                                  *)

let test_run_all_runs_each_task_once () =
  with_budget 4 (fun () ->
      let t = Pool.create ~jobs:4 in
      let n = 200 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.run_all t (Array.init n (fun i () -> Atomic.incr hits.(i)));
      Array.iteri
        (fun i a ->
          Alcotest.(check int)
            (Printf.sprintf "task %d ran exactly once" i)
            1 (Atomic.get a))
        hits)

let test_parallel_chunks_matches_sequential () =
  with_budget 4 (fun () ->
      let n = 10_000 in
      let expected = n * (n - 1) / 2 in
      List.iter
        (fun jobs ->
          let t = Pool.create ~jobs in
          let sums =
            Pool.parallel_chunks t ~n (fun ~chunk:_ ~lo ~hi ->
                let s = ref 0 in
                for i = lo to hi - 1 do
                  s := !s + i
                done;
                !s)
          in
          Alcotest.(check int)
            (Printf.sprintf "sum at jobs=%d" jobs)
            expected
            (Array.fold_left ( + ) 0 sums))
        [ 1; 2; 4; 8 ])

let test_zero_worker_budget_completes () =
  (* budget=1 means no workers may ever spawn: the submitting domain
     must drain its batches alone, whatever the handle asks for. *)
  with_budget 1 (fun () ->
      let t = Pool.create ~jobs:8 in
      let count = Atomic.make 0 in
      Pool.run_all t (Array.init 50 (fun _ () -> Atomic.incr count));
      Alcotest.(check int) "all tasks ran" 50 (Atomic.get count);
      Alcotest.(check int) "no workers spawned" 0 (Pool.worker_count ()))

let test_error_propagation () =
  with_budget 4 (fun () ->
      let t = Pool.create ~jobs:4 in
      let ran = Atomic.make 0 in
      let tasks =
        Array.init 20 (fun i () ->
            Atomic.incr ran;
            if i = 7 then failwith "seven";
            if i = 13 then failwith "thirteen")
      in
      (match Pool.run_all t tasks with
      | () -> Alcotest.fail "expected the task failure to re-raise"
      | exception Failure msg ->
          (* Lowest task index wins when several fail. *)
          Alcotest.(check string) "first error by index" "seven" msg);
      Alcotest.(check int) "every task still ran" 20 (Atomic.get ran))

(* ------------------------------------------------------------------ *)
(* Cap inheritance (nested batches share the submitter's cap)          *)

let test_cap_inheritance () =
  with_budget 8 (fun () ->
      let outer = Pool.create ~jobs:2 in
      let inner = Pool.create ~jobs:8 in
      let observed = Array.make 4 None in
      let nested_obs = Array.make 4 None in
      Pool.run_all outer
        (Array.init 4 (fun i () ->
             observed.(i) <- Pool.current_cap ();
             (* A nested batch through a jobs=8 handle must clamp to
                the enclosing batch's cap of 2, not fan out to 8. *)
             Pool.run_all inner
               (Array.init 3 (fun _ () -> nested_obs.(i) <- Pool.current_cap ()))));
      Array.iteri
        (fun i c ->
          Alcotest.(check (option int))
            (Printf.sprintf "outer task %d sees cap 2" i)
            (Some 2) c)
        observed;
      Array.iteri
        (fun i c ->
          Alcotest.(check (option int))
            (Printf.sprintf "nested task under outer %d clamped to 2" i)
            (Some 2) c)
        nested_obs;
      Alcotest.(check (option int)) "no cap outside any batch" None
        (Pool.current_cap ()))

(* ------------------------------------------------------------------ *)
(* The cap bounds concurrency, not just the reported cap               *)

(* [tracked peaks ~label ~width ~cap body] is a batch of [width] tasks
   that count how many of them run at once, registered in [peaks] with
   the effective cap it must stay within. *)
let tracked peaks ~label ~width ~cap body =
  let in_flight = Atomic.make 0 and peak = Atomic.make 0 in
  Mutex.protect (fst peaks) (fun () -> snd peaks := (label, cap, peak) :: !(snd peaks));
  Array.init width (fun i () ->
      let now = Atomic.fetch_and_add in_flight 1 + 1 in
      let rec raise_peak () =
        let p = Atomic.get peak in
        if now > p && not (Atomic.compare_and_set peak p now) then raise_peak ()
      in
      raise_peak ();
      Fun.protect ~finally:(fun () -> Atomic.decr in_flight) (fun () -> body i))

let check_peaks peaks =
  List.iter
    (fun (label, cap, peak) ->
      let p = Atomic.get peak in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d in flight <= cap %d" label p cap)
        true
        (p >= 1 && p <= cap))
    !(snd peaks)

let test_cap_bounds_concurrency () =
  with_budget 8 (fun () ->
      let peaks = (Mutex.create (), ref []) in
      let nap _ = Unix.sleepf 0.001 in
      (* Top-level batches. *)
      List.iter
        (fun jobs ->
          Pool.run_all (Pool.create ~jobs)
            (tracked peaks ~label:(Printf.sprintf "top jobs=%d" jobs) ~width:16
               ~cap:jobs nap))
        [ 2; 3; 4 ];
      (* Nested batches: an inner jobs=8 handle clamps to the outer 3. *)
      let inner = Pool.create ~jobs:8 in
      Pool.run_all (Pool.create ~jobs:3)
        (tracked peaks ~label:"outer jobs=3" ~width:6 ~cap:3 (fun i ->
             Pool.run_all inner
               (tracked peaks ~label:(Printf.sprintf "nested under %d" i)
                  ~width:6 ~cap:3 nap)));
      (* Submitters that help other batches while they wait: with one
         worker (the rest of the budget reserved), two domains submit
         batches of uneven tasks side by side, so one's wait overlaps
         the other's open batch.  A task run on the other submitter's
         domain is such a help. *)
      let submitters = [| Atomic.make (-1); Atomic.make (-1) |] in
      let helped = Atomic.make 0 in
      let submit k =
        Atomic.set submitters.(k) (Domain.self () :> int);
        let t = Pool.create ~jobs:2 in
        let r = ref 0 in
        while !r < 10 || (Atomic.get helped = 0 && !r < 500) do
          incr r;
          Pool.run_all t
            (tracked peaks ~label:(Printf.sprintf "submitter %d round %d" k !r)
               ~width:4 ~cap:2 (fun i ->
                 if (Domain.self () :> int) = Atomic.get submitters.(1 - k) then
                   Atomic.incr helped;
                 Unix.sleepf (if i = 0 then 0.004 else 0.001)))
        done
      in
      Pool.park ();
      Pool.reserve_domains 6;
      Fun.protect
        ~finally:(fun () -> Pool.release_domains 6)
        (fun () ->
          let other = Domain.spawn (fun () -> submit 1) in
          submit 0;
          Domain.join other);
      Alcotest.(check bool) "a waiting submitter helped the other's batch" true
        (Atomic.get helped > 0);
      check_peaks peaks)

(* ------------------------------------------------------------------ *)
(* One worker set for the whole process (the shared-pool leak)         *)

let test_budget_bounds_workers () =
  with_budget 4 (fun () ->
      (* Drive batches through handles with different jobs counts: the
         historic per-jobs-count pools would have kept 3 + 7 worker
         domains; the shared scheduler never exceeds budget - 1. *)
      List.iter
        (fun jobs ->
          let t = Pool.create ~jobs in
          Pool.run_all t (Array.init 32 (fun _ () -> ignore (Sys.opaque_identity 0))))
        [ 2; 4; 8 ];
      Alcotest.(check bool)
        (Printf.sprintf "workers (%d) <= budget - 1 (3)" (Pool.worker_count ()))
        true
        (Pool.worker_count () <= 3))

let test_reservation_shrinks_workers () =
  with_budget 4 (fun () ->
      Pool.reserve_domains 2;
      Fun.protect
        ~finally:(fun () -> Pool.release_domains 2)
        (fun () ->
          Alcotest.(check int) "max_parallelism = budget - reserved" 2
            (Pool.max_parallelism ());
          Pool.park ();
          let t = Pool.create ~jobs:8 in
          Pool.run_all t (Array.init 32 (fun _ () -> ()));
          Alcotest.(check bool)
            (Printf.sprintf "workers (%d) <= budget - 1 - reserved (1)"
               (Pool.worker_count ()))
            true
            (Pool.worker_count () <= 1));
      Alcotest.(check int) "release restores max_parallelism" 4
        (Pool.max_parallelism ()))

(* ------------------------------------------------------------------ *)
(* The teardown/submission race (regression)                           *)

let test_park_concurrent_with_submission () =
  (* A thread parking the scheduler in a loop while the main domain
     keeps submitting batches: every batch must complete with every
     task run exactly once — a submission landing mid-teardown just
     runs on the submitting domain — and the process must not deadlock
     or crash.  This raced before the scheduler serialized
     [ensure_workers] against [park]. *)
  with_budget 4 (fun () ->
      let stop = Atomic.make false in
      let parker =
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              Pool.park ();
              Thread.yield ()
            done)
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Thread.join parker)
        (fun () ->
          let t = Pool.create ~jobs:4 in
          for _round = 1 to 50 do
            let count = Atomic.make 0 in
            Pool.run_all t (Array.init 64 (fun _ () -> Atomic.incr count));
            Alcotest.(check int) "batch complete despite racing park" 64
              (Atomic.get count)
          done))

let test_park_idempotent_and_respawn () =
  with_budget 4 (fun () ->
      let t = Pool.create ~jobs:4 in
      Pool.run_all t (Array.init 16 (fun _ () -> ()));
      Pool.park ();
      Alcotest.(check int) "parked: no workers" 0 (Pool.worker_count ());
      Pool.park ();
      (* Workers respawn on the next submission. *)
      let count = Atomic.make 0 in
      Pool.run_all t (Array.init 16 (fun _ () -> Atomic.incr count));
      Alcotest.(check int) "respawned batch ran" 16 (Atomic.get count))

let () =
  Alcotest.run "pool"
    [
      ( "batches",
        [
          Alcotest.test_case "each task runs once" `Quick
            test_run_all_runs_each_task_once;
          Alcotest.test_case "parallel_chunks matches sequential" `Quick
            test_parallel_chunks_matches_sequential;
          Alcotest.test_case "zero-worker budget completes" `Quick
            test_zero_worker_budget_completes;
          Alcotest.test_case "error propagation" `Quick test_error_propagation;
        ] );
      ( "caps",
        [
          Alcotest.test_case "nested batches inherit the cap" `Quick
            test_cap_inheritance;
          Alcotest.test_case "the cap bounds tasks in flight" `Quick
            test_cap_bounds_concurrency;
        ] );
      ( "budget",
        [
          Alcotest.test_case "one worker set, bounded by budget" `Quick
            test_budget_bounds_workers;
          Alcotest.test_case "reservation shrinks the worker target" `Quick
            test_reservation_shrinks_workers;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "park racing submissions" `Quick
            test_park_concurrent_with_submission;
          Alcotest.test_case "park idempotent; workers respawn" `Quick
            test_park_idempotent_and_respawn;
        ] );
    ]
