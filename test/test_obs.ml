(* The observability layer: metrics registry semantics (monotonic
   counters, log-bucket histograms, exact sums under concurrent
   increments), Prometheus exposition well-formedness, span-tree shape
   of traced query runs (including partial traces after a deadline
   kill, at jobs 1 and 4), the slow-query log threshold, and the
   STANDOFF_TRACE forcing switch. *)

module Metrics = Standoff_obs.Metrics
module Trace = Standoff_obs.Trace
module Slow_log = Standoff_obs.Slow_log
module Collection = Standoff_store.Collection
module Config = Standoff.Config
module Engine = Standoff_xquery.Engine
module Timing = Standoff_util.Timing
module Setup = Standoff_xmark.Setup
module Queries = Standoff_xmark.Queries

let figure1_doc =
  "<sample>\
   <video>\
   <shot id=\"Intro\" start=\"0\" end=\"8\"/>\
   <shot id=\"Interview\" start=\"8\" end=\"64\"/>\
   <shot id=\"Outro\" start=\"64\" end=\"94\"/>\
   </video>\
   <audio>\
   <music artist=\"U2\" start=\"0\" end=\"31\"/>\
   <music artist=\"Bach\" start=\"52\" end=\"94\"/>\
   </audio>\
   </sample>"

let figure1_coll () =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"figure1.xml" figure1_doc);
  coll

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                  *)

let test_counter_monotonic () =
  let c = Metrics.counter "test_obs_monotonic_total" in
  let before = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" (before + 42) (Metrics.counter_value c);
  Metrics.add c 0;
  Alcotest.(check int) "add 0 is a no-op" (before + 42)
    (Metrics.counter_value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.add: counters are monotonic") (fun () ->
      Metrics.add c (-1));
  (* Registration is memoizing: the same name returns the same cells. *)
  let c' = Metrics.counter "test_obs_monotonic_total" in
  Metrics.incr c';
  Alcotest.(check int) "same name, same counter" (before + 43)
    (Metrics.counter_value c);
  (* And kind-inconsistent re-registration is an error. *)
  Alcotest.check_raises "counter name cannot become a gauge"
    (Invalid_argument "Metrics: test_obs_monotonic_total is not a gauge")
    (fun () -> ignore (Metrics.gauge "test_obs_monotonic_total"))

let test_histogram_buckets () =
  let h =
    Metrics.histogram "test_obs_bounds_seconds" ~buckets:[| 1.0; 2.0; 4.0 |]
  in
  (* le semantics: an observation exactly on a bound lands in that
     bound's bucket; past the last bound it lands in +Inf only. *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.0; 4.1 ];
  let cum = Metrics.histogram_cumulative h in
  Alcotest.(check (array int)) "cumulative per-bound counts"
    [| 2; 4; 5; 6 |] cum;
  Alcotest.(check int) "count" 6 (Metrics.histogram_count h);
  (* The sum is kept in integer nanoseconds; 13.1 s to within 1 ns
     per observation. *)
  let sum = Metrics.histogram_sum h in
  Alcotest.(check bool) "sum ~ 13.1" true (Float.abs (sum -. 13.1) < 1e-6)

let test_log_buckets () =
  let b = Metrics.log_buckets ~start:1e-3 ~factor:10.0 ~count:4 in
  Alcotest.(check int) "count" 4 (Array.length b);
  Array.iteri
    (fun i expect ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d" i)
        true
        (Float.abs (b.(i) -. expect) /. expect < 1e-9))
    [| 1e-3; 1e-2; 1e-1; 1.0 |]

let test_concurrent_increments () =
  let c = Metrics.counter "test_obs_concurrent_total" in
  let before = Metrics.counter_value c in
  let per_domain = 50_000 and domains = 8 in
  let workers =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  Array.iter Domain.join workers;
  (* Sharded cells use fetch_and_add, so the sum is exact, not
     approximate. *)
  Alcotest.(check int) "8 domains x 50k increments sum exactly"
    (before + (domains * per_domain))
    (Metrics.counter_value c)

let test_enable_switch () =
  let c = Metrics.counter "test_obs_switch_total" in
  let before = Metrics.counter_value c in
  Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled true)
    (fun () ->
      Metrics.incr c;
      Metrics.add c 7);
  Alcotest.(check int) "updates dropped while disabled" before
    (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "updates resume" (before + 1) (Metrics.counter_value c)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)

let test_expose_parses () =
  (* Touch a few engine metrics so the exposition is non-trivial. *)
  let coll = figure1_coll () in
  let e = Engine.create coll in
  ignore
    (Engine.run e
       "count(doc(\"figure1.xml\")//music/select-wide::shot)");
  let text = Metrics.expose () in
  let lines = String.split_on_char '\n' text in
  let typed = Hashtbl.create 16 in
  let seen_sample = ref 0 in
  List.iter
    (fun line ->
      if line = "" then ()
      else if line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: ("HELP" | "TYPE") :: name :: _rest ->
            Hashtbl.replace typed name ()
        | _ -> Alcotest.failf "bad comment line: %s" line
      end
      else begin
        (* name{labels} value | name value — the value must parse as a
           float and the name must have been declared by a # TYPE. *)
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "bad sample line: %s" line
        | Some i ->
            let name_part = String.sub line 0 i in
            let value = String.sub line (i + 1) (String.length line - i - 1) in
            (match float_of_string_opt value with
            | Some _ -> ()
            | None -> Alcotest.failf "unparseable value in: %s" line);
            let base =
              match String.index_opt name_part '{' with
              | Some j -> String.sub name_part 0 j
              | None -> name_part
            in
            (* Histogram series carry the _bucket/_sum/_count suffix. *)
            let strip suffix s =
              if Filename.check_suffix s suffix then
                String.sub s 0 (String.length s - String.length suffix)
              else s
            in
            let base =
              base |> strip "_bucket" |> strip "_sum" |> strip "_count"
            in
            if not (Hashtbl.mem typed base) then
              Alcotest.failf "sample without # TYPE: %s" line;
            incr seen_sample
      end)
    lines;
  Alcotest.(check bool) "some samples present" true (!seen_sample > 10);
  (* The tentpole metrics all show up. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exposed") true
        (Hashtbl.mem typed name))
    [
      "standoff_queries_total";
      "standoff_query_seconds";
      "standoff_joins_total";
      "standoff_join_index_rows_total";
      "standoff_cache_hits_total";
      "standoff_pool_tasks_total";
      "standoff_pool_queue_depth";
      "standoff_pool_queue_wait_seconds";
      "standoff_collection_docs";
      "standoff_index_builds_total";
      "standoff_merge_sweeps_total";
      "standoff_slow_queries_total";
    ]

let test_joins_by_strategy_labelled () =
  let coll = figure1_coll () in
  let e = Engine.create coll in
  let q = "count(doc(\"figure1.xml\")//music/select-wide::shot)" in
  List.iter
    (fun s -> ignore (Engine.run e ~strategy:s q))
    Config.all_strategies;
  let text = Metrics.expose () in
  List.iter
    (fun s ->
      let needle =
        Printf.sprintf "standoff_joins_total{strategy=\"%s\"}"
          (Config.strategy_to_string s)
      in
      let found =
        List.exists
          (fun line -> String.length line >= String.length needle
                       && String.sub line 0 (String.length needle) = needle)
          (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) (needle ^ " present") true found)
    Config.all_strategies

(* ------------------------------------------------------------------ *)
(* Span trees                                                          *)

let test_trace_shape_flwor () =
  let coll = figure1_coll () in
  let e = Engine.create coll in
  let trace = Trace.create () in
  let q =
    "for $m in doc(\"figure1.xml\")//music \
     return <r>{for $s in $m/select-wide::shot return string($s/@id)}</r>"
  in
  let r = Engine.run e ~trace q in
  let root =
    match r.Engine.trace with
    | Some root -> root
    | None -> Alcotest.fail "traced run returned no span tree"
  in
  Alcotest.(check bool) "root closed, no dangling spans" true
    (Trace.all_closed root);
  let phases = List.map Trace.name (Trace.children root) in
  Alcotest.(check (list string)) "phase spans in order"
    [ "parse"; "optimize"; "eval"; "serialize" ]
    phases;
  (* The eval phase contains the operator tree: a for-loop span with
     the join somewhere below it, each tagged with a plan-node id. *)
  let eval_span =
    List.find (fun sp -> Trace.name sp = "eval") (Trace.children root)
  in
  let fors =
    Trace.find_all
      (fun sp ->
        Trace.node sp >= 0
        && String.length (Trace.name sp) >= 3
        && String.sub (Trace.name sp) 0 3 = "for")
      eval_span
  in
  Alcotest.(check bool) "nested FLWOR: two for-operator spans" true
    (List.length fors >= 2);
  let joins =
    Trace.find_all
      (fun sp ->
        Trace.node sp >= 0
        && String.length (Trace.name sp) >= 13
        && String.sub (Trace.name sp) 0 13 = "standoff-join")
      eval_span
  in
  (match joins with
  | [] -> Alcotest.fail "no standoff-join span"
  | sp :: _ ->
      Alcotest.(check bool) "join span has rows_out" true
        (Trace.int_attr sp "rows_out" <> None);
      Alcotest.(check bool) "join span has rows_in" true
        (Trace.int_attr sp "rows_in" <> None);
      Alcotest.(check bool) "join span has a resolved strategy" true
        (Trace.str_attr sp "strategy" <> None));
  (* The inner for's span is a descendant of the outer for's span. *)
  let outer = List.hd fors in
  let inner_inside =
    Trace.find_all
      (fun sp ->
        sp != outer
        && String.length (Trace.name sp) >= 3
        && String.sub (Trace.name sp) 0 3 = "for")
      outer
    <> []
  in
  Alcotest.(check bool) "inner for nests under outer for" true inner_inside;
  (* JSON emission at least round-trips the structural characters. *)
  let json = Trace.span_to_json root in
  Alcotest.(check bool) "json mentions phases" true
    (List.for_all
       (fun n ->
         let needle = Printf.sprintf "\"name\":\"%s\"" n in
         let rec contains i =
           i + String.length needle <= String.length json
           && (String.sub json i (String.length needle) = needle
              || contains (i + 1))
         in
         contains 0)
       [ "parse"; "optimize"; "eval"; "serialize" ])

let test_trace_rows_out_matches_result () =
  let coll = figure1_coll () in
  let e = Engine.create coll in
  let trace = Trace.create () in
  let r =
    Engine.run e ~trace
      "doc(\"figure1.xml\")//music/select-wide::shot"
  in
  let root = Option.get r.Engine.trace in
  let eval_span =
    List.find (fun sp -> Trace.name sp = "eval") (Trace.children root)
  in
  (* The outermost operator span's rows_out is the result cardinality. *)
  match Trace.children eval_span with
  | [ top ] ->
      Alcotest.(check (option int)) "top operator rows_out = |items|"
        (Some (List.length r.Engine.items))
        (Trace.int_attr top "rows_out")
  | other ->
      Alcotest.failf "expected one top operator span, got %d"
        (List.length other)

let test_deadline_partial_trace () =
  (* A query killed by Deadline_exceeded must still leave a well-formed
     trace: every span closed, phases present — at jobs 1 and jobs 4. *)
  let setup = Setup.build ~with_standard:false ~scale:0.01 () in
  Engine.shutdown setup.Setup.engine;
  let text = Queries.q2.Queries.standoff setup.Setup.standoff_doc in
  List.iter
    (fun jobs ->
      let e = Engine.create ~jobs setup.Setup.coll in
      Fun.protect
        ~finally:(fun () -> Engine.shutdown e)
        (fun () ->
          let trace = Trace.create () in
          let deadline = Timing.deadline_after 1e-6 in
          (match
             Engine.run e ~strategy:Config.Basic_merge ~deadline ~trace
               text
           with
          | _ -> Alcotest.failf "jobs=%d: expected Deadline_exceeded" jobs
          | exception Timing.Deadline_exceeded -> ());
          let root = Trace.root trace in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: partial trace fully closed" jobs)
            true (Trace.all_closed root);
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: spans were recorded" jobs)
            true
            (Trace.span_count trace > 1);
          (* The kill happened mid-eval: the eval phase span exists and
             is closed even though eval never returned. *)
          let names = List.map Trace.name (Trace.children root) in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: eval phase present" jobs)
            true
            (List.mem "eval" names)))
    [ 1; 4 ]

let test_trace_forced_by_env () =
  (* STANDOFF_TRACE=1 makes untraced runs produce a span tree. *)
  let coll = figure1_coll () in
  let e = Engine.create coll in
  Unix.putenv "STANDOFF_TRACE" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "STANDOFF_TRACE" "")
    (fun () ->
      let r =
        Engine.run e
          "count(doc(\"figure1.xml\")//shot)"
      in
      match r.Engine.trace with
      | Some root -> Alcotest.(check bool) "closed" true (Trace.all_closed root)
      | None -> Alcotest.fail "STANDOFF_TRACE=1 did not force a trace");
  let r =
    Engine.run e "count(doc(\"figure1.xml\")//shot)"
  in
  Alcotest.(check bool) "unset again: no trace" true (r.Engine.trace = None)

(* ------------------------------------------------------------------ *)
(* Slow-query log                                                      *)

let test_slow_log_threshold () =
  Slow_log.clear ();
  let coll = figure1_coll () in
  let e = Engine.create coll in
  let q = "count(doc(\"figure1.xml\")//shot)" in
  (* Threshold far above any conceivable runtime: nothing fires. *)
  Engine.set_slow_ms e (Some 1e9);
  ignore (Engine.run e q);
  Alcotest.(check int) "fast query not logged" 0
    (List.length (Slow_log.recent ()));
  (* Threshold zero: everything fires, with the query text recorded. *)
  Engine.set_slow_ms e (Some 0.0);
  ignore (Engine.run e q);
  (match Slow_log.recent () with
  | [ entry ] ->
      Alcotest.(check string) "query text recorded" q entry.Slow_log.e_query;
      (* The engine defaults to adaptive sizing ([jobs e = 0]); the log
         records the jobs the run actually resolved to, always >= 1. *)
      Alcotest.(check bool) "jobs recorded (resolved >= 1)" true
        (entry.Slow_log.e_jobs >= 1);
      Alcotest.(check string) "strategy recorded" "auto"
        entry.Slow_log.e_strategy;
      Alcotest.(check bool) "duration non-negative" true
        (entry.Slow_log.e_seconds >= 0.0)
  | entries -> Alcotest.failf "expected 1 slow entry, got %d"
                 (List.length entries));
  (* Disabled again: no further entries. *)
  Engine.set_slow_ms e None;
  ignore (Engine.run e q);
  Alcotest.(check int) "disabled: still 1 entry" 1
    (List.length (Slow_log.recent ()));
  Slow_log.clear ()

let test_slow_log_sink_and_summary () =
  Slow_log.clear ();
  let coll = figure1_coll () in
  let e = Engine.create coll in
  Engine.set_slow_ms e (Some 0.0);
  let hits = ref [] in
  Slow_log.set_sink (Some (fun entry -> hits := entry :: !hits));
  Fun.protect
    ~finally:(fun () -> Slow_log.set_sink None)
    (fun () ->
      let trace = Trace.create () in
      ignore
        (Engine.run e ~trace ~strategy:Config.Loop_lifted
           "count(doc(\"figure1.xml\")//music/select-narrow::shot)"));
  (match !hits with
  | [ entry ] ->
      Alcotest.(check string) "pinned strategy recorded" "loop-lifted"
        entry.Slow_log.e_strategy;
      (* Traced runs carry the span digest into the log entry. *)
      Alcotest.(check bool) "summary mentions spans" true
        (String.length entry.Slow_log.e_summary >= 6
        && String.sub entry.Slow_log.e_summary 0 6 = "spans=");
      let line = Slow_log.entry_to_string entry in
      Alcotest.(check bool) "rendered entry mentions the query" true
        (String.length line > String.length entry.Slow_log.e_query)
  | entries ->
      Alcotest.failf "expected 1 sink hit, got %d" (List.length entries));
  Slow_log.clear ()

let test_slow_log_env_threshold () =
  Unix.putenv "STANDOFF_SLOW_MS" "250";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "STANDOFF_SLOW_MS" "")
    (fun () ->
      Alcotest.(check (option (float 1e-9))) "parsed" (Some 250.0)
        (Slow_log.env_threshold_ms ());
      let coll = figure1_coll () in
      let e = Engine.create coll in
      Alcotest.(check (option (float 1e-9))) "engine default picks it up"
        (Some 250.0) (Engine.slow_ms e));
  Alcotest.(check (option (float 1e-9))) "unset: disabled" None
    (Slow_log.env_threshold_ms ())

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter monotonicity" `Quick
            test_counter_monotonic;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_buckets;
          Alcotest.test_case "log-scale bucket ladder" `Quick test_log_buckets;
          Alcotest.test_case "concurrent increments sum exactly" `Quick
            test_concurrent_increments;
          Alcotest.test_case "enable switch drops updates" `Quick
            test_enable_switch;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus text parses line-by-line" `Quick
            test_expose_parses;
          Alcotest.test_case "per-strategy join counters" `Quick
            test_joins_by_strategy_labelled;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "span tree of a nested FLWOR" `Quick
            test_trace_shape_flwor;
          Alcotest.test_case "rows_out equals result cardinality" `Quick
            test_trace_rows_out_matches_result;
          Alcotest.test_case "deadline leaves well-formed partial trace" `Slow
            test_deadline_partial_trace;
          Alcotest.test_case "STANDOFF_TRACE forces collection" `Quick
            test_trace_forced_by_env;
        ] );
      ( "slow-log",
        [
          Alcotest.test_case "fires at threshold, not below" `Quick
            test_slow_log_threshold;
          Alcotest.test_case "sink and trace summary" `Quick
            test_slow_log_sink_and_summary;
          Alcotest.test_case "STANDOFF_SLOW_MS threshold" `Quick
            test_slow_log_env_threshold;
        ] );
    ]
