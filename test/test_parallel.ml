(* Parallel execution must be invisible in results: for every query,
   every jobs count produces byte-identical serialized output to the
   sequential (jobs=1) run.  The suite sweeps jobs over {1, 2, 3, 8}
   for the XMark queries, all four StandOff operators, the paper's
   §3.1 example document, empty-context reject iterations, and
   multi-document collections; checks that figure-6-style deadlines
   still fire with jobs>1; and hammers the equivalence with random
   annotation documents. *)

module Collection = Standoff_store.Collection
module Config = Standoff.Config
module Engine = Standoff_xquery.Engine
module Setup = Standoff_xmark.Setup
module Queries = Standoff_xmark.Queries
module Timing = Standoff_util.Timing
module Pool = Standoff_util.Pool

let jobs_sweep = [ 2; 3; 4; 8 ]

(* CI containers may expose a single core, which would size the domain
   budget to 1 and quietly turn every "parallel" run sequential.  Force
   a budget of 8 so the sweeps exercise real worker domains and
   work stealing regardless of the machine. *)
let () = Pool.set_domain_budget 8

(* The §3.1 video/audio example (Figure 1). *)
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

(* Run [q] against [coll] once per jobs count and insist every result
   serializes identically to the sequential one.  Every engine is shut
   down before the next is created: domains are a bounded resource. *)
let check_jobs_equal ?strategy ?context_doc what coll q =
  let run jobs =
    let e = Engine.create ?strategy ~jobs coll in
    Fun.protect
      ~finally:(fun () -> Engine.shutdown e)
      (fun () ->
        (Engine.run e ?context_doc q)
          .Engine.serialized)
  in
  let sequential = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%s: jobs=%d = jobs=1" what jobs)
        sequential (run jobs))
    jobs_sweep;
  sequential

(* ------------------------------------------------------------------ *)
(* §3.1 example document, all four operators                           *)

let figure1_coll () =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"figure1.xml" figure1_doc);
  coll

let test_figure1_operators () =
  let coll = figure1_coll () in
  List.iter
    (fun op ->
      let q =
        Printf.sprintf
          "for $m in doc(\"figure1.xml\")//music return <r>{count($m/%s::shot)}</r>"
          op
      in
      ignore (check_jobs_equal ("figure1 " ^ op) coll q))
    [ "select-narrow"; "select-wide"; "reject-narrow"; "reject-wide" ]

let test_figure1_strategies () =
  (* A pinned strategy must give the same answer at any jobs count —
     in particular Loop_lifted, the only strategy with a parallel
     sweep. *)
  let coll = figure1_coll () in
  List.iter
    (fun strategy ->
      let q =
        "for $s in doc(\"figure1.xml\")//shot \
         return <r>{count($s/select-wide::music)}</r>"
      in
      ignore
        (check_jobs_equal ~strategy
           ("figure1 " ^ Config.strategy_to_string strategy)
           coll q))
    Config.all_strategies

let test_empty_context_rejects () =
  (* Iterations whose context is empty matter to the reject operators:
     they reject nothing, so every candidate comes back.  The [if]
     gives half the iterations an empty context. *)
  let coll = figure1_coll () in
  List.iter
    (fun op ->
      let q =
        Printf.sprintf
          "for $i in (1, 2, 3, 4) return <r>{count((if ($i mod 2 = 0) \
           then doc(\"figure1.xml\")//music else ())/%s::shot)}</r>"
          op
      in
      ignore (check_jobs_equal ("empty-context " ^ op) coll q))
    [ "reject-narrow"; "reject-wide" ]

(* ------------------------------------------------------------------ *)
(* Multi-document collections                                          *)

let test_multi_document () =
  let coll = Collection.create () in
  for d = 1 to 6 do
    let parts =
      List.init (3 * d) (fun i ->
          Printf.sprintf "<a start=\"%d\" end=\"%d\"/><b start=\"%d\" end=\"%d\"/>"
            (i * 5) ((i * 5) + 8) ((i * 5) + 2) ((i * 5) + 4))
    in
    ignore
      (Collection.load_string coll
         ~name:(Printf.sprintf "d%d.xml" d)
         ("<t>" ^ String.concat "" parts ^ "</t>"))
  done;
  (* A context sequence drawn from every document at once makes the
     per-document shards of the StandOff step really fan out. *)
  let union =
    String.concat ", "
      (List.init 6 (fun d -> Printf.sprintf "doc(\"d%d.xml\")//a" (d + 1)))
  in
  let q =
    Printf.sprintf "for $x in (%s) return <g>{count($x/select-wide::b)}</g>"
      union
  in
  ignore (check_jobs_equal "multi-doc sharding" coll q)

(* ------------------------------------------------------------------ *)
(* XMark Q1/Q2/Q6/Q7, StandOff form                                    *)

let test_xmark_queries () =
  let setup = Setup.build ~with_standard:false ~scale:0.003 () in
  Engine.shutdown setup.Setup.engine;
  List.iter
    (fun q ->
      let text = q.Queries.standoff setup.Setup.standoff_doc in
      ignore
        (check_jobs_equal ("xmark " ^ q.Queries.id) setup.Setup.coll text))
    Queries.all

let test_nested_cap_inheritance () =
  (* A StandOff step whose context spans 8 documents nests batches:
     the outer per-document batch caps at the run's jobs, and each
     document's join submits its own chunked sweeps, which must
     inherit that cap rather than multiply it (8 docs x jobs 8 would
     ask for 64 domains).  The observable contract is byte-identical
     output at every cap. *)
  let coll = Collection.create () in
  for d = 1 to 8 do
    let parts =
      List.init 40 (fun i ->
          Printf.sprintf
            "<a start=\"%d\" end=\"%d\"/><b start=\"%d\" end=\"%d\"/>"
            (i * 7) ((i * 7) + 10) ((i * 7) + 3) ((i * 7) + 5))
    in
    ignore
      (Collection.load_string coll
         ~name:(Printf.sprintf "n%d.xml" d)
         ("<t>" ^ String.concat "" parts ^ "</t>"))
  done;
  let docs =
    String.concat ", "
      (List.init 8 (fun d -> Printf.sprintf "doc(\"n%d.xml\")" (d + 1)))
  in
  let q =
    Printf.sprintf "for $x in (%s)//a return <g>{count($x/select-wide::b)}</g>"
      docs
  in
  let run jobs =
    let e = Engine.create ~strategy:Config.Loop_lifted ~jobs coll in
    Fun.protect
      ~finally:(fun () -> Engine.shutdown e)
      (fun () ->
        let prepared = Engine.prepare e q in
        (Engine.run_prepared e prepared).Engine.serialized)
  in
  let sequential = run 1 in
  (* Each <g>..</g> holds two g's: one group per a, in all 8 documents. *)
  Alcotest.(check int) "groups span every document" (2 * 8 * 40)
    (List.length (String.split_on_char 'g' sequential) - 1);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "nested sharded: jobs=%d = jobs=1" jobs)
        sequential (run jobs))
    [ 2; 4; 8 ];
  Alcotest.(check bool) "workers stayed within the budget" true
    (Pool.worker_count () <= Pool.domain_budget () - 1)

let test_adaptive_jobs_identical () =
  (* jobs=0 (adaptive) must be invisible in results too: whatever
     parallelism the cost estimate picks, output equals sequential. *)
  let setup = Setup.build ~with_standard:false ~scale:0.003 () in
  Engine.shutdown setup.Setup.engine;
  let run jobs text =
    let e = Engine.create ~jobs setup.Setup.coll in
    Fun.protect
      ~finally:(fun () -> Engine.shutdown e)
      (fun () ->
        (Engine.run e text).Engine.serialized)
  in
  List.iter
    (fun q ->
      let text = q.Queries.standoff setup.Setup.standoff_doc in
      Alcotest.(check string)
        (Printf.sprintf "adaptive %s = jobs=1" q.Queries.id)
        (run 1 text) (run 0 text))
    Queries.all

(* ------------------------------------------------------------------ *)
(* Deadlines fire inside parallel chunks                               *)

let test_deadline_fires () =
  (* Figure-6 protocol at an unpayable budget: the run must report
     Timed_out, not hang, with parallel workers active. *)
  let setup = Setup.build ~with_standard:false ~scale:0.01 () in
  Engine.shutdown setup.Setup.engine;
  let e = Engine.create ~jobs:4 setup.Setup.coll in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let q = Queries.q2 in
      let text = q.Queries.standoff setup.Setup.standoff_doc in
      (* Per-iteration Basic_merge rescans the index every iteration —
         the strategy Figure 6 shows DNFing — so even a small scale
         cannot finish in a microsecond. *)
      match
        Engine.run_with_timeout e ~strategy:Config.Basic_merge
          ~seconds:1e-6 text
      with
      | Timing.Timed_out _ -> ()
      | Timing.Finished _ ->
          Alcotest.fail "expected a timeout with jobs=4, query finished")

(* ------------------------------------------------------------------ *)
(* Randomized equivalence                                              *)

let qcheck_parallel_equals_sequential =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 12) (pair (int_bound 60) (int_bound 25)))
        (list_size (1 -- 12) (pair (int_bound 60) (int_bound 25))))
  in
  let print (xs, ys) =
    let f = List.map (fun (s, w) -> Printf.sprintf "[%d,%d]" s (s + w)) in
    Printf.sprintf "a=%s b=%s" (String.concat ";" (f xs))
      (String.concat ";" (f ys))
  in
  QCheck.Test.make
    ~name:"parallel results equal sequential on random documents" ~count:60
    (QCheck.make ~print gen)
    (fun (a_regions, b_regions) ->
      let el name (s, w) =
        Printf.sprintf "<%s start=\"%d\" end=\"%d\"/>" name s (s + w)
      in
      let doc =
        "<t>"
        ^ String.concat "" (List.map (el "a") a_regions)
        ^ String.concat "" (List.map (el "b") b_regions)
        ^ "</t>"
      in
      let coll = Collection.create () in
      ignore (Collection.load_string coll ~name:"r.xml" doc);
      let run jobs q =
        let e = Engine.create ~strategy:Config.Loop_lifted ~jobs coll in
        Fun.protect
          ~finally:(fun () -> Engine.shutdown e)
          (fun () ->
            (Engine.run e q).Engine.serialized)
      in
      List.for_all
        (fun op ->
          let q =
            Printf.sprintf
              "for $x in doc(\"r.xml\")//a return <g>{count($x/%s::b)}</g>"
              op
          in
          let sequential = run 1 q in
          List.for_all (fun jobs -> run jobs q = sequential) jobs_sweep)
        [ "select-narrow"; "select-wide"; "reject-narrow"; "reject-wide" ])

let () =
  Alcotest.run "parallel"
    [
      ( "identical-results",
        [
          Alcotest.test_case "figure1: all operators" `Quick
            test_figure1_operators;
          Alcotest.test_case "figure1: all strategies" `Quick
            test_figure1_strategies;
          Alcotest.test_case "empty-context rejects" `Quick
            test_empty_context_rejects;
          Alcotest.test_case "multi-document sharding" `Quick
            test_multi_document;
          Alcotest.test_case "xmark Q1/Q2/Q6/Q7" `Slow test_xmark_queries;
          Alcotest.test_case "nested batches: sharded multi-doc caps" `Quick
            test_nested_cap_inheritance;
          Alcotest.test_case "adaptive jobs identical" `Slow
            test_adaptive_jobs_identical;
          QCheck_alcotest.to_alcotest qcheck_parallel_equals_sequential;
        ] );
      ( "deadlines",
        [ Alcotest.test_case "timeout fires with jobs=4" `Slow
            test_deadline_fires ] );
    ]
