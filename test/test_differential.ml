(* Cross-strategy differential harness: the paper's four evaluation
   strategies are result-equivalent by construction (§4), and parallel
   execution must be invisible.  This suite generates random
   annotation documents and random StandOff queries (axis form,
   function form, FLWOR) over two documents and insists that all 4 strategies x jobs {1, 4}
   produce byte-identical serialized results — and that the traced
   rows_out of the join operators agrees across strategies.  Each
   strategy x jobs point also runs under the result cache, twice (a
   cold miss then a warm hit): both runs must be byte-identical to the
   cache-off reference, so a caching bug can never masquerade as a
   strategy difference.  QCheck prints the failing document and query;
   the qcheck random seed is printed at startup for replay. *)

module Collection = Standoff_store.Collection
module Persist = Standoff_store.Persist
module Config = Standoff.Config
module Engine = Standoff_xquery.Engine
module Trace = Standoff_obs.Trace

let ops = [ "select-narrow"; "select-wide"; "reject-narrow"; "reject-wide" ]
let jobs_sweep = [ 1; 4 ]

(* The DataGuide path index is a pure performance knob: the collapse
   rewrite and the probe-based evaluation must be invisible in the
   bytes, so every strategy x jobs point runs both ways. *)
let dataguide_sweep = [ false; true ]

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

type case = {
  layers : (string * (int * int) list) list;  (* name -> (start, width) *)
  layers2 : (string * (int * int) list) list;  (* the second document *)
  query : string;
}

let doc_of_layers layers =
  let b = Buffer.create 256 in
  Buffer.add_string b "<t>";
  List.iter
    (fun (name, regions) ->
      List.iter
        (fun (s, w) ->
          Buffer.add_string b
            (Printf.sprintf "<%s start=\"%d\" end=\"%d\"/>" name s (s + w)))
        regions)
    layers;
  Buffer.add_string b "</t>";
  Buffer.contents b

(* Each shape takes the operator, the expression of the context
   nodes named [from_n] and that of the nodes named [to_n] (both over
   r.xml, or over r.xml and s.xml), and the name [to_n]. *)
let query_shapes =
  [
    (fun op ctx _ to_n ->
      Printf.sprintf "for $x in %s return <g>{count($x/%s::%s)}</g>" ctx op
        to_n);
    (fun op ctx cand _ -> Printf.sprintf "count(%s(%s, %s))" op ctx cand);
    (fun op ctx _ to_n ->
      Printf.sprintf
        "count(for $x in %s where count($x/%s::%s) > 0 return $x)" ctx op to_n);
    (fun op ctx _ to_n ->
      (* Two chained joins stress per-operator strategy resolution. *)
      Printf.sprintf
        "for $x in %s return <g>{count($x/%s::%s/select-narrow::*)}</g>" ctx
        op to_n);
    (fun op ctx _ to_n ->
      (* Positional and value predicates inside the loop; attribute
         items, atomics and empty sequences as constructor content. *)
      Printf.sprintf
        "for $x in %s return \
         <g s=\"{$x/@start}\">{$x/%s::%s[1]/@end, \
         $x/%s::%s[last()]/@start, count($x/%s::%s[@start = \"10\"]), \
         \"-\", $x/%s::%s[\"0\" = @start]}</g>"
        ctx op to_n op to_n op to_n op to_n);
    (fun op ctx _ to_n ->
      (* General comparisons over multi-item operands, untyped against
         untyped and against numeric literals. *)
      Printf.sprintf
        "for $x in %s where $x/%s::%s/@end > $x/@end \
         or $x/%s::%s/@start = 5 return ($x/@start + 0, $x/@end != 40)"
        ctx op to_n op to_n);
    (fun op ctx _ to_n ->
      (* One context sequence per iteration, spanning both documents
         when [ctx] does. *)
      Printf.sprintf
        "for $i in (1, 2) return (count(%s/%s::%s), %s/%s::%s/@start)" ctx op
        to_n ctx op to_n);
  ]

(* The nodes named [name]: of r.xml, of both documents in document
   order, or of both with s.xml's first. *)
let sources =
  [
    Printf.sprintf "doc(\"r.xml\")//%s";
    (fun name ->
      Printf.sprintf "(doc(\"r.xml\")//%s | doc(\"s.xml\")//%s)" name name);
    (fun name ->
      Printf.sprintf "(doc(\"s.xml\")//%s, doc(\"r.xml\")//%s)" name name);
  ]

let gen_case =
  QCheck.Gen.(
    let layer = list_size (0 -- 10) (pair (int_bound 80) (int_bound 30)) in
    let* a = layer and* b = layer and* c = layer in
    let* a2 = layer and* b2 = layer in
    let* op = oneofl ops in
    let* shape = oneofl query_shapes in
    let* src = oneofl sources in
    let* from_n = oneofl [ "a"; "b"; "c" ] in
    let* to_n = oneofl [ "a"; "b"; "c" ] in
    return
      {
        layers = [ ("a", a); ("b", b); ("c", c) ];
        layers2 = [ ("a", a2); ("b", b2) ];
        query = shape op (src from_n) (src to_n) to_n;
      })

let print_case case =
  Printf.sprintf "doc=%s\ndoc2=%s\nquery=%s" (doc_of_layers case.layers)
    (doc_of_layers case.layers2) case.query

let coll_of_case case =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"r.xml" (doc_of_layers case.layers));
  ignore (Collection.load_string coll ~name:"s.xml" (doc_of_layers case.layers2));
  coll

(* The persistence dimension: a collection that went through the
   binary codec (the same round-trip a snapshot + recovery performs)
   must be indistinguishable from the in-memory one at the bytes level,
   under every strategy/jobs/cache/dataguide point. *)
let reload coll = Persist.collection_of_string (Persist.collection_to_string coll)

let run_case coll ?trace ~strategy ~jobs ~dataguide case =
  let e =
    Engine.create ~strategy ~jobs ~cache:Engine.Cache_off ~dataguide coll
  in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      (Engine.run e ?trace case.query)
        .Engine.serialized)

(* One engine with the result cache on, the query run twice: the first
   run misses and fills, the second must be served back byte-identical.
   Returns both serializations. *)
let run_case_cached coll ~strategy ~jobs ~dataguide case =
  let e =
    Engine.create ~strategy ~jobs ~cache:Engine.Cache_result ~dataguide coll
  in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let once () =
        (Engine.run e case.query).Engine.serialized
      in
      let cold = once () in
      (cold, once ()))

(* ------------------------------------------------------------------ *)
(* Byte-identical serialization across all strategies and jobs         *)

let qcheck_strategies_identical =
  QCheck.Test.make
    ~name:"all strategies x jobs {1,4} x dataguide x cache byte-identical"
    ~count:30
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      let coll = coll_of_case case in
      let reloaded = reload coll in
      let reference =
        run_case coll ~strategy:Config.Udf_no_candidates ~jobs:1
          ~dataguide:false case
      in
      List.for_all
        (fun strategy ->
          List.for_all
            (fun jobs ->
              List.for_all
                (fun dataguide ->
                  let out = run_case coll ~strategy ~jobs ~dataguide case in
                  if not (String.equal out reference) then
                    QCheck.Test.fail_reportf
                      "strategy=%s jobs=%d dataguide=%b diverged:\n\
                       %s\n  vs reference:\n%s"
                      (Config.strategy_to_string strategy)
                      jobs dataguide out reference
                  else
                    let cold, warm =
                      run_case_cached coll ~strategy ~jobs ~dataguide case
                    in
                    if not (String.equal cold reference) then
                      QCheck.Test.fail_reportf
                        "strategy=%s jobs=%d dataguide=%b cache-on cold run \
                         diverged:\n%s\n  vs reference:\n%s"
                        (Config.strategy_to_string strategy)
                        jobs dataguide cold reference
                    else if not (String.equal warm reference) then
                      QCheck.Test.fail_reportf
                        "strategy=%s jobs=%d dataguide=%b cached repeat \
                         diverged:\n%s\n  vs reference:\n%s"
                        (Config.strategy_to_string strategy)
                        jobs dataguide warm reference
                    else
                      let persisted =
                        run_case reloaded ~strategy ~jobs ~dataguide case
                      in
                      if not (String.equal persisted reference) then
                        QCheck.Test.fail_reportf
                          "strategy=%s jobs=%d dataguide=%b reloaded \
                           collection diverged:\n%s\n  vs reference:\n%s"
                          (Config.strategy_to_string strategy)
                          jobs dataguide persisted reference
                      else true)
                dataguide_sweep)
            jobs_sweep)
        Config.all_strategies)

(* ------------------------------------------------------------------ *)
(* Traced rows_out agrees across strategies                            *)

let join_rows_out root =
  (* Total rows flowing out of every standoff-join operator span.  The
     per-span rows_out is the node's output cardinality, which
     result-equivalent strategies must agree on. *)
  Trace.find_all
    (fun sp ->
      Trace.node sp >= 0
      && String.length (Trace.name sp) >= 13
      && String.sub (Trace.name sp) 0 13 = "standoff-join")
    root
  |> List.fold_left
       (fun acc sp ->
         acc + Option.value ~default:0 (Trace.int_attr sp "rows_out"))
       0

let qcheck_trace_rows_agree =
  QCheck.Test.make ~name:"traced join rows_out equal across strategies"
    ~count:25
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      let coll = coll_of_case case in
      let rows_of strategy =
        let trace = Trace.create () in
        ignore (run_case coll ~trace ~strategy ~jobs:1 ~dataguide:false case);
        join_rows_out (Trace.root trace)
      in
      let reference = rows_of Config.Udf_no_candidates in
      List.for_all
        (fun strategy ->
          let rows = rows_of strategy in
          if rows = reference then true
          else
            QCheck.Test.fail_reportf
              "strategy=%s: join rows_out %d, reference %d"
              (Config.strategy_to_string strategy)
              rows reference)
        Config.all_strategies)

(* ------------------------------------------------------------------ *)
(* Deterministic corner cases the generator may miss                   *)

let test_corner_cases () =
  let cases =
    [
      (* Empty layers: joins over nothing. *)
      { layers = [ ("a", []); ("b", []); ("c", []) ]; layers2 = [];
        query = "count(select-wide(doc(\"r.xml\")//a, doc(\"r.xml\")//b))" };
      (* Identical regions in both layers: ties on every boundary. *)
      { layers = [ ("a", [ (0, 10); (0, 10) ]); ("b", [ (0, 10) ]); ("c", []) ];
        layers2 = [];
        query =
          "for $x in doc(\"r.xml\")//a return \
           <g>{count($x/select-narrow::b)}</g>" };
      (* Zero-width regions. *)
      { layers = [ ("a", [ (5, 0) ]); ("b", [ (5, 0); (4, 2) ]); ("c", []) ];
        layers2 = [];
        query =
          "for $x in doc(\"r.xml\")//a return \
           <g>{count($x/reject-narrow::b)}</g>" };
      (* Nested and chained: all three layers involved. *)
      { layers =
          [
            ("a", [ (0, 50); (10, 10) ]);
            ("b", [ (5, 10); (20, 5); (40, 20) ]);
            ("c", [ (0, 100); (21, 2) ]);
          ];
        layers2 = [];
        query =
          "for $x in doc(\"r.xml\")//a return \
           <g>{count($x/select-wide::b/select-narrow::c)}</g>" };
      (* One iteration's context in two documents, out of document
         order: each document joins only its own nodes. *)
      { layers = [ ("a", [ (0, 50) ]); ("b", [ (5, 10); (60, 5) ]); ("c", []) ];
        layers2 = [ ("a", [ (0, 70) ]); ("b", [ (5, 10); (60, 5) ]) ];
        query =
          "for $i in (1, 2) return \
           (count((doc(\"s.xml\")//a, doc(\"r.xml\")//a)/select-narrow::b), \
           (doc(\"s.xml\")//a, doc(\"r.xml\")//a)/reject-wide::b/@start)" };
    ]
  in
  List.iter
    (fun case ->
      let coll = coll_of_case case in
      let reloaded = reload coll in
      let reference =
        run_case coll ~strategy:Config.Udf_no_candidates ~jobs:1
          ~dataguide:false case
      in
      List.iter
        (fun strategy ->
          List.iter
            (fun jobs ->
              List.iter
                (fun dataguide ->
                  (* Each point runs over the in-memory collection and
                     over its persisted round-trip: plain, cache-on
                     cold, and cached repeat must all match the one
                     reference. *)
                  List.iter
                    (fun (label, coll) ->
                      Alcotest.(check string)
                        (Printf.sprintf "%s @ %s jobs=%d dataguide=%b%s"
                           case.query
                           (Config.strategy_to_string strategy)
                           jobs dataguide label)
                        reference
                        (run_case coll ~strategy ~jobs ~dataguide case);
                      let cold, warm =
                        run_case_cached coll ~strategy ~jobs ~dataguide case
                      in
                      Alcotest.(check string)
                        (Printf.sprintf
                           "%s @ %s jobs=%d dataguide=%b%s cache-on cold"
                           case.query
                           (Config.strategy_to_string strategy)
                           jobs dataguide label)
                        reference cold;
                      Alcotest.(check string)
                        (Printf.sprintf
                           "%s @ %s jobs=%d dataguide=%b%s cached repeat"
                           case.query
                           (Config.strategy_to_string strategy)
                           jobs dataguide label)
                        reference warm)
                    [ ("", coll); (" reloaded", reloaded) ])
                dataguide_sweep)
            jobs_sweep)
        Config.all_strategies)
    cases

(* All-annotation wide joins on stand-off XMark: every candidate is
   an annotation, most of them far from any context region — the
   shape whose pending list used to grow with the document.  Both ops,
   as a total and per context bidder, must serialize identically under
   every strategy and jobs point. *)
let test_xmark_wide_all () =
  let setup = Standoff_xmark.Setup.build ~with_standard:false ~scale:0.002 () in
  let doc = setup.Standoff_xmark.Setup.standoff_doc in
  let bidders =
    Printf.sprintf
      "doc(\"%s\")//site/select-narrow::open_auctions\n\
       /select-narrow::open_auction/select-narrow::bidder"
      doc
  in
  List.iter
    (fun op ->
      List.iter
        (fun query ->
          let case = { layers = []; layers2 = []; query } in
          let reference =
            run_case setup.Standoff_xmark.Setup.coll
              ~strategy:Config.Loop_lifted ~jobs:1 ~dataguide:true case
          in
          Alcotest.(check bool) (query ^ ": non-empty") true
            (String.trim reference <> "" && String.trim reference <> "0");
          List.iter
            (fun strategy ->
              List.iter
                (fun jobs ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s @ %s jobs=%d" query
                       (Config.strategy_to_string strategy)
                       jobs)
                    reference
                    (run_case setup.Standoff_xmark.Setup.coll ~strategy ~jobs
                       ~dataguide:true case))
                jobs_sweep)
            Config.all_strategies)
        [
          Printf.sprintf "count(%s/%s::*)" bidders op;
          Printf.sprintf "for $b in %s return count($b/%s::*)" bidders op;
        ])
    [ "select-wide"; "reject-wide" ]

let () =
  Alcotest.run "differential"
    [
      ( "cross-strategy",
        [
          Alcotest.test_case "deterministic corner cases" `Quick
            test_corner_cases;
          Alcotest.test_case "XMark all-annotation wide joins" `Quick
            test_xmark_wide_all;
          QCheck_alcotest.to_alcotest qcheck_strategies_identical;
          QCheck_alcotest.to_alcotest qcheck_trace_rows_agree;
        ] );
    ]
