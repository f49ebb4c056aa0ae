(* Plan-layer tests: the optimizer's rewrites are visible in the
   rendered plan (candidate pushdown, strategy selection, step/filter
   fusion, constant folding), and — the safety net behind all of them —
   the optimized plan returns exactly what the direct (unoptimized)
   lowering returns, on the §3.1 sample document and the XMark
   workload. *)

module Collection = Standoff_store.Collection
module Config = Standoff.Config
module Op = Standoff.Op
module Engine = Standoff_xquery.Engine
module Plan = Standoff_xquery.Plan
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

let figure1_engine () =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"figure1.xml" figure1_doc);
  Engine.create coll

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains what out needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S in plan:\n%s" what needle out)
    true (contains out needle)

let check_absent what out needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S absent from plan:\n%s" what needle out)
    false (contains out needle)

(* ------------------------------------------------------------------ *)
(* Construction detection (drives the HTTP server's lock choice)       *)

let test_constructs_detection () =
  let engine = figure1_engine () in
  let constructs q = Engine.prepared_constructs (Engine.prepare engine q) in
  Alcotest.(check bool)
    "plain path does not construct" false
    (constructs "doc(\"figure1.xml\")//shot");
  Alcotest.(check bool)
    "aggregate does not construct" false
    (constructs "count(doc(\"figure1.xml\")//video/select-wide::music)");
  Alcotest.(check bool)
    "element constructor detected" true
    (constructs "<r>{doc(\"figure1.xml\")//shot}</r>");
  Alcotest.(check bool)
    "constructor in a FLWOR body detected" true
    (constructs "for $s in doc(\"figure1.xml\")//shot return <hit/>");
  Alcotest.(check bool)
    "constructor behind a declared function detected" true
    (constructs "declare function local:mk() { <x/> };\nlocal:mk()")

(* ------------------------------------------------------------------ *)
(* Rewrites, observed through the rendered plan                        *)

let test_pushdown () =
  let engine = figure1_engine () in
  let q = "doc(\"figure1.xml\")//select-narrow::shot" in
  let optimized = Engine.explain engine q in
  check_contains "pushdown" optimized "candidates=elements(shot)";
  check_contains "pushdown" optimized "[pushed-down]";
  let direct = Engine.explain engine ~optimize:false q in
  check_contains "direct" direct "candidates=all-annotations";
  check_absent "direct" direct "[pushed-down]"

let test_pushdown_skipped_for_dominant_name () =
  (* Every annotation is a shot, so scanning elements(shot) buys
     nothing over the full region index: the statistics veto the
     pushdown (threshold: name covers > 80% of annotations). *)
  let coll = Collection.create () in
  ignore
    (Collection.load_string coll ~name:"shots.xml"
       "<t><shot start=\"0\" end=\"5\"/><shot start=\"2\" end=\"4\"/>\
        <shot start=\"6\" end=\"9\"/></t>");
  let engine = Engine.create coll in
  let out = Engine.explain engine "doc(\"shots.xml\")//select-wide::shot" in
  check_contains "dominant name" out "candidates=all-annotations";
  check_absent "dominant name" out "[pushed-down]"

let test_strategy_selection () =
  let engine = figure1_engine () in
  let q = "doc(\"figure1.xml\")//select-narrow::shot" in
  check_contains "default" (Engine.explain engine q) "strategy=auto";
  check_contains "pinned by argument"
    (Engine.explain engine ~strategy:Config.Loop_lifted q)
    "strategy=loop-lifted";
  check_contains "pinned by prolog"
    (Engine.explain engine
       ("declare option standoff-strategy \"basic\";\n" ^ q))
    "strategy=basic"

let test_positional_fusion () =
  let engine = figure1_engine () in
  let q =
    "for $m in doc(\"figure1.xml\")//music return $m/select-narrow::shot[1]"
  in
  let optimized = Engine.explain engine q in
  check_contains "fused join position" optimized "select-narrow::shot[1]";
  check_absent "fused join position" optimized "filter";
  let direct = Engine.explain engine ~optimize:false q in
  check_contains "direct keeps the filter" direct "filter";
  (* Plain axis steps fuse the same way. *)
  let steps = Engine.explain engine "doc(\"figure1.xml\")//shot[2]" in
  check_contains "fused step position" steps "step child::shot[2]"

let test_name_fusion () =
  let engine = figure1_engine () in
  let q = "doc(\"figure1.xml\")//select-narrow::node()[self::shot]" in
  let optimized = Engine.explain engine q in
  check_contains "self test fused into join" optimized
    "standoff-join select-narrow::shot";
  check_absent "self test fused into join" optimized "filter";
  let direct = Engine.explain engine ~optimize:false q in
  check_contains "direct keeps node() + filter" direct
    "standoff-join select-narrow::node()";
  check_contains "direct keeps node() + filter" direct "filter"

let test_constant_folding () =
  let engine = figure1_engine () in
  let plan q = Plan.render (Engine.prepared_plan (Engine.prepare engine q)) in
  Alcotest.(check string) "arithmetic" "literal 3" (plan "1 + 2");
  Alcotest.(check string) "comparison + if" "literal \"no\""
    (plan "if (1 = 2) then \"yes\" else \"no\"");
  Alcotest.(check string) "singleton sequence" "literal 7" (plan "(7)");
  (* Division by zero must raise at run time, not at plan time. *)
  check_contains "div-by-zero unfolded" (plan "1 div 0") "binop"

let test_explain_analyze () =
  let engine = figure1_engine () in
  let out =
    Engine.explain_analyze engine
      "for $m in doc(\"figure1.xml\")//music return $m/select-narrow::shot"
  in
  check_contains "analyze" out "standoff-join select-narrow::shot";
  check_contains "analyze" out "calls=1";
  check_contains "analyze" out "rows_in=2";
  check_contains "analyze" out "time=";
  check_contains "analyze" out "strategy="

let find_sub haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then None
    else if String.sub haystack i nl = needle then Some i
    else go (i + 1)
  in
  go 0

(* Mask the only run-dependent part of an analysis suffix. *)
let strip_timings out =
  String.split_on_char '\n' out
  |> List.map (fun line ->
         match find_sub line " time=" with
         | Some i -> String.sub line 0 i ^ " time=_)"
         | None -> line)
  |> String.concat "\n"

(* Drop the whole analysis suffix, leaving the static plan line. *)
let strip_analysis out =
  String.split_on_char '\n' out
  |> List.map (fun line ->
         let cut marker =
           Option.map (fun i -> String.sub line 0 i) (find_sub line marker)
         in
         match cut "  (calls=" with
         | Some s -> s
         | None -> Option.value ~default:line (cut "  (not executed)"))
  |> String.concat "\n"

let test_explain_analyze_xmark_regression () =
  (* EXPLAIN ANALYZE is now derived from the span tree; its rendering
     for the paper's workload must stay what it always was: the static
     plan, each executed node decorated with a (calls=... time=...)
     suffix that is stable across runs modulo timings. *)
  let setup = Setup.build ~scale:0.002 ~with_standard:false () in
  let engine = setup.Setup.engine in
  List.iter
    (fun q ->
      let text = q.Queries.standoff setup.Setup.standoff_doc in
      let analyzed = Engine.explain_analyze engine text in
      check_contains (q.Queries.id ^ " annotated") analyzed "(calls=";
      Alcotest.(check string)
        (q.Queries.id ^ " stable modulo timings")
        (strip_timings analyzed)
        (strip_timings (Engine.explain_analyze engine text));
      Alcotest.(check string)
        (q.Queries.id ^ " skeleton matches EXPLAIN")
        (Engine.explain engine text)
        (strip_analysis analyzed))
    Queries.all

(* ------------------------------------------------------------------ *)
(* Equivalence: optimized plan vs direct lowering                      *)

let both_paths engine ?context_doc q =
  let run ~optimize =
    (Engine.run_prepared engine ?context_doc
       (Engine.prepare engine ~optimize q))
      .Engine.serialized
  in
  (run ~optimize:false, run ~optimize:true)

let test_equivalence_figure1 () =
  let engine = figure1_engine () in
  List.iter
    (fun op ->
      let q =
        Printf.sprintf
          "for $s in doc(\"figure1.xml\")//music[@artist = \"U2\"]/%s::shot \
           return string($s/@id)"
          (Op.to_string op)
      in
      let direct, planned = both_paths engine q in
      Alcotest.(check string) (Op.to_string op) direct planned)
    Op.all;
  (* Function form with an explicit candidate sequence. *)
  let direct, planned =
    both_paths engine
      "count(select-wide(doc(\"figure1.xml\")//music, \
       doc(\"figure1.xml\")//shot))"
  in
  Alcotest.(check string) "function form" direct planned

let test_equivalence_reject_empty_context () =
  (* A reject-* iteration whose context is empty keeps every candidate
     (vacuous rejection) — the planned path must preserve that. *)
  let engine = figure1_engine () in
  let q =
    "for $x in (1, 2) return count(reject-narrow(\
     if ($x = 1) then doc(\"figure1.xml\")//music else (), \
     doc(\"figure1.xml\")//shot))"
  in
  let direct, planned = both_paths engine q in
  Alcotest.(check string) "reject with empty iteration" direct planned;
  (* Iteration 1: only Interview is not inside a music region;
     iteration 2: empty context keeps all three shots. *)
  Alcotest.(check string) "expected counts" "1 3" planned

let test_equivalence_xmark () =
  let setup = Setup.build ~scale:0.002 ~with_standard:false () in
  List.iter
    (fun q ->
      let direct, planned =
        both_paths setup.Setup.engine
          (q.Queries.standoff setup.Setup.standoff_doc)
      in
      Alcotest.(check string) q.Queries.id direct planned;
      Alcotest.(check bool)
        (Printf.sprintf "%s non-trivial" q.Queries.id)
        true
        (String.length planned > 0))
    Queries.all

let () =
  Alcotest.run "plan"
    [
      ( "optimizer",
        [
          Alcotest.test_case "candidate pushdown" `Quick test_pushdown;
          Alcotest.test_case "pushdown skipped for dominant name" `Quick
            test_pushdown_skipped_for_dominant_name;
          Alcotest.test_case "strategy selection" `Quick test_strategy_selection;
          Alcotest.test_case "positional fusion" `Quick test_positional_fusion;
          Alcotest.test_case "name fusion" `Quick test_name_fusion;
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "explain analyze" `Quick test_explain_analyze;
          Alcotest.test_case "explain analyze xmark regression" `Quick
            test_explain_analyze_xmark_regression;
          Alcotest.test_case "construction detection" `Quick
            test_constructs_detection;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "figure 1 operators" `Quick
            test_equivalence_figure1;
          Alcotest.test_case "reject with empty context" `Quick
            test_equivalence_reject_empty_context;
          Alcotest.test_case "xmark Q1 Q2 Q6 Q7" `Quick test_equivalence_xmark;
        ] );
    ]
