(* End-to-end tests of the XQuery engine: language features, paths,
   the StandOff axes in query syntax, configuration via declare
   option, and the Figure 2/3 user-defined functions. *)

module Collection = Standoff_store.Collection
module Item = Standoff_relalg.Item
module Config = Standoff.Config
module Engine = Standoff_xquery.Engine
module Err = Standoff_xquery.Err
module Lexer = Standoff_xquery.Lexer

let figure1 =
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

let make_engine () =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"figure1.xml" figure1);
  ignore
    (Collection.load_string coll ~name:"books.xml"
       "<books><book year=\"1994\"><title>TCP/IP</title><price>65.95</price>\
        </book><book year=\"2000\"><title>Data on the Web</title>\
        <price>39.95</price></book><book year=\"2000\">\
        <title>XML Queries</title><price>120</price></book></books>");
  Engine.create coll

let run ?strategy ?context_doc q =
  let e = make_engine () in
  (Engine.run e ?strategy ?context_doc q).Engine.serialized

let check ?strategy ?context_doc name expected q =
  Alcotest.(check string) name expected (run ?strategy ?context_doc q)

(* ------------------------------------------------------------ *)
(* Basics                                                        *)

let test_literals () =
  check "int" "42" "42";
  check "negative" "-5" "-(2 + 3)";
  check "string" "hello" "\"hello\"";
  check "string escape" "it's" "\"it's\"";
  check "apos string" "say \"hi\"" "'say \"hi\"'";
  check "float" "2.5" "2.5";
  check "empty sequence" "" "()"

let test_arithmetic () =
  check "add" "7" "3 + 4";
  check "precedence" "14" "2 + 3 * 4";
  check "div exact" "3" "6 div 2";
  check "div inexact" "3.5" "7 div 2";
  check "idiv" "3" "7 idiv 2";
  check "mod" "1" "7 mod 2";
  check "unary minus" "-4" "-4";
  check "float promo" "3.5" "3 + 0.5"

let test_sequences () =
  check "comma" "1 2 3" "1, 2, 3";
  check "nested flatten" "1 2 3 4" "(1, (2, 3), 4)";
  check "range" "3 4 5" "3 to 5";
  check "empty range" "" "5 to 3"

let test_comparisons () =
  check "eq true" "true" "1 = 1";
  check "lt" "true" "1 < 2";
  check "general exists" "true" "(1, 2, 3) = 3";
  check "general no match" "false" "(1, 2) = (4, 5)";
  check "ne general (both directions)" "true" "(1, 2) != 1";
  check "string compare" "true" "\"abc\" < \"abd\"";
  check "empty comparison" "false" "() = 1"

let test_logic () =
  check "and" "false" "1 = 1 and 1 = 2";
  check "or" "true" "1 = 1 or 1 = 2";
  check "not" "true" "not(1 = 2)";
  check "ebv of empty" "false" "boolean(())";
  check "ebv of string" "true" "boolean(\"x\")"

let test_if () =
  check "then" "yes" "if (1 < 2) then \"yes\" else \"no\"";
  check "else" "no" "if (1 > 2) then \"yes\" else \"no\""

let test_flwor () =
  check "simple for" "1 2 3" "for $x in (1, 2, 3) return $x";
  check "nested for, let"
    "twenty one twenty two thirty one thirty two"
    "for $x in (\"twenty\", \"thirty\") for $y in (\"one\", \"two\") \
     let $z := ($x, $y) return $z";
  check "where" "2 4" "for $x in (1, 2, 3, 4) where $x mod 2 = 0 return $x";
  check "at position" "1 10 2 20 3 30"
    "for $x at $i in (10, 20, 30) return ($i, $x)";
  check "multiple in one clause" "11 21 12 22"
    "for $x in (1, 2), $y in (10, 20) return $y + $x"

let test_quantified () =
  check "some true" "true" "some $x in (1, 2, 3) satisfies $x > 2";
  check "some false" "false" "some $x in (1, 2) satisfies $x > 5";
  check "every true" "true" "every $x in (2, 4) satisfies $x mod 2 = 0";
  check "every false" "false" "every $x in (2, 3) satisfies $x mod 2 = 0";
  check "every vacuous" "true" "every $x in () satisfies $x > 100"

let test_functions () =
  check "count" "3" "count((1, 2, 3))";
  check "count empty" "0" "count(())";
  check "exists" "true" "exists((1))";
  check "empty()" "true" "empty(())";
  check "sum" "6" "sum((1, 2, 3))";
  check "sum empty" "0" "sum(())";
  check "min/max" "1 3" "(min((2, 1, 3)), max((2, 1, 3)))";
  check "avg" "2" "avg((1, 2, 3))";
  check "concat" "ab1" "concat(\"a\", \"b\", 1)";
  check "string-join" "a-b" "string-join((\"a\", \"b\"), \"-\")";
  check "contains" "true" "contains(\"hello\", \"ell\")";
  check "starts-with" "false" "starts-with(\"hello\", \"ell\")";
  check "string-length" "5" "string-length(\"hello\")";
  check "substring" "ell" "substring(\"hello\", 2, 3)";
  check "distinct-values" "1 2 3" "distinct-values((1, 2, 1, 3, 2))";
  check "string of int" "7" "string(7)"

let test_order_by () =
  check "ascending" "1 2 3" "for $x in (3, 1, 2) order by $x return $x";
  check "descending" "3 2 1"
    "for $x in (3, 1, 2) order by $x descending return $x";
  check "explicit ascending" "1 2 3"
    "for $x in (3, 1, 2) order by $x ascending return $x";
  check "two keys" "b1 a2 b2"
    "for $x in (\"b2\", \"a2\", \"b1\") \
     order by substring($x, 2, 1), substring($x, 1, 1) return $x";
  check "key expression" "1 -2 3"
    "for $x in (1, -2, 3) order by $x * $x return $x";
  check "string literals sort lexicographically" "10 21 9"
    "for $x in (\"21\", \"9\", \"10\") order by $x return $x";
  (* Untyped node content that looks numeric sorts numerically. *)
  check "untyped numeric sorts numerically" "39.95 65.95 120"
    "for $b in doc(\"books.xml\")//book order by $b/price \
     return string($b/price)";
  (* Empty keys sort first, keeping their input order among
     themselves. *)
  check "empty keys first" "2 4 0 1 3"
    "for $x in (1, 2, 3, 4, 0) \
     order by (if ($x mod 2 = 0) then () else $x) return $x";
  check "order by over nodes" "39.95 65.95 120"
    "for $b in doc(\"books.xml\")//book order by number($b/price) \
     return string($b/price)";
  check "order inside outer loop stays per-group" "1 2 9 1 5"
    "for $g in (1, 2) \
     return (for $x in (if ($g = 1) then (2, 9, 1) else (5, 1)) \
             order by $x return $x)";
  check "stable on ties" "a1 a2 b1"
    "for $x in (\"a1\", \"a2\", \"b1\") order by substring($x, 1, 1) return $x"

let test_set_operations () =
  check "intersect" "2"
    "count(doc(\"books.xml\")//book[@year = 2000] intersect \
     doc(\"books.xml\")//book)";
  check "except" "1"
    "count(doc(\"books.xml\")//book except \
     doc(\"books.xml\")//book[@year = 2000])";
  check "union keyword" "3"
    "count(doc(\"books.xml\")//book[1] union doc(\"books.xml\")//book)";
  check "except to empty" "0"
    "count(doc(\"books.xml\")//book except doc(\"books.xml\")//book)"

let test_more_builtins () =
  check "abs" "4" "abs(-4)";
  check "floor" "2" "floor(2.7)";
  check "ceiling" "3" "ceiling(2.1)";
  check "round" "3" "round(2.5)";
  check "normalize-space" "a b c" "normalize-space(\"  a\t b \n c \")";
  check "translate" "ABcA" "translate(\"abca\", \"ab\", \"AB\")";
  check "translate removes" "bc" "translate(\"abca\", \"a\", \"\")";
  check "reverse" "3 2 1" "reverse((1, 2, 3))";
  check "subsequence" "2 3" "subsequence((1, 2, 3, 4), 2, 2)";
  check "subsequence to end" "3 4" "subsequence((1, 2, 3, 4), 3)";
  check "index-of" "2 4" "index-of((\"a\", \"b\", \"c\", \"b\"), \"b\")"

let test_comments () =
  check "comment ignored" "3" "1 + (: one (: nested :) comment :) 2"

let test_declare_variable () =
  check "global variable" "10" "declare variable $n := 10; $n"

(* ------------------------------------------------------------ *)
(* Paths                                                         *)

let test_paths_basic () =
  check "doc + child" "<title>TCP/IP</title>"
    "doc(\"books.xml\")/books/book[1]/title";
  check "descendant" "3" "count(doc(\"books.xml\")//book)";
  check "attribute" "1994" "string(doc(\"books.xml\")//book[1]/@year)";
  check "name test after //" "2"
    "count(doc(\"books.xml\")//book[@year = 2000])";
  (* //title[1] is "first title of each parent", not "first title". *)
  check "text() per-context positional" "TCP/IP\nData on the Web\nXML Queries"
    "doc(\"books.xml\")//title[1]/text()";
  check "parenthesised positional" "TCP/IP"
    "(doc(\"books.xml\")//title)[1]/text()";
  check "wildcard" "6" "count(doc(\"books.xml\")/books/book/*)";
  check "parent" "books"
    "name(doc(\"books.xml\")//book[1]/parent::*)";
  check "dotdot" "books" "name(doc(\"books.xml\")//book[1]/..)"

let test_paths_predicates () =
  check "positional" "Data on the Web"
    "string(doc(\"books.xml\")//book[2]/title)";
  check "position()" "Data on the Web XML Queries"
    "for $t in doc(\"books.xml\")//book[position() > 1]/title \
     return string($t)";
  check "last()" "XML Queries"
    "string(doc(\"books.xml\")//book[last()]/title)";
  check "predicate on attribute" "2"
    "count(doc(\"books.xml\")//book[@year = \"2000\"])";
  check "chained predicates" "1"
    "count(doc(\"books.xml\")//book[@year = 2000][1])";
  (* Per-context-node positional semantics: every book's first child. *)
  check "per-context position" "3"
    "count(doc(\"books.xml\")//book/*[1])"

let test_paths_context () =
  check ~context_doc:"books.xml" "leading slash" "3" "count(/books/book)";
  check ~context_doc:"books.xml" "leading dslash" "3" "count(//book)";
  check ~context_doc:"books.xml" "context in predicate" "2"
    "count(//book[./@year = 2000])"

let test_path_union () =
  (* 3 titles plus book 1's price; book 1's title deduplicates. *)
  check "union dedup doc order" "4"
    "count(doc(\"books.xml\")//title | doc(\"books.xml\")//book[1]/* \
     | doc(\"books.xml\")//title)"

let test_arith_over_nodes () =
  check "sum over prices" "225.9"
    "sum(for $p in doc(\"books.xml\")//price return number($p))";
  check "untyped in comparison" "1"
    "count(doc(\"books.xml\")//book[price > 100])"

(* ------------------------------------------------------------ *)
(* Element constructors                                          *)

let test_constructor_basic () =
  check "fixed" "<out>hi</out>" "<out>hi</out>";
  check "empty" "<out/>" "<out/>";
  check "enclosed atomic" "<out>3</out>" "<out>{1 + 2}</out>";
  check "sequence spacing" "<out>1 2 3</out>" "<out>{1, 2, 3}</out>";
  check "attr enclosed" "<out n=\"7\"/>" "<out n=\"{3 + 4}\"/>";
  check "attr mixed" "<out n=\"x7y\"/>" "<out n=\"x{7}y\"/>";
  check "nested" "<a><b>1</b></a>" "<a><b>{1}</b></a>";
  check "escaped braces" "<a>{}</a>" "<a>{{}}</a>";
  check "entity in ctor" "<a>&amp;</a>" "<a>&amp;</a>"

let test_constructor_copies_nodes () =
  check "node copy" "<pick><title>TCP/IP</title></pick>"
    "<pick>{doc(\"books.xml\")//book[1]/title}</pick>";
  check "per iteration" "<t>TCP/IP</t>\n<t>Data on the Web</t>\n<t>XML Queries</t>"
    "for $b in doc(\"books.xml\")//book return <t>{string($b/title)}</t>"

(* Constructed nodes live in the run's own arena: no query writes to
   the shared collection, whichever entry point runs it and however
   the run ends. *)

let missing_doc_error e name q =
  match Engine.run e q with
  | exception Err.Error msg ->
      Alcotest.(check string) "ordinary missing-document error"
        (Printf.sprintf "doc(%S): no such document" name) msg
  | r -> Alcotest.failf "doc(%S) answered %S" name r.Engine.serialized

let test_constructed_not_by_name () =
  let e = make_engine () in
  ignore (Engine.run e "<a/>");
  (* The names constructors ever used, plus any constructed document
     a run left registered in the shared collection. *)
  let left =
    Collection.fold_docs
      (fun acc _ d ->
        let name = d.Standoff_store.Doc.doc_name in
        if String.length name > 0 && name.[0] = '#' then name :: acc else acc)
      [] (Engine.collection e)
  in
  List.iter
    (fun name ->
      missing_doc_error e name
        (Printf.sprintf "let $x := <a/> return (doc(%S), $x)" name))
    ("#constructed-1" :: "#constructed" :: left)

let test_constructing_runs_leave_collection () =
  let e = make_engine () in
  let coll = Engine.collection e in
  let before = Collection.doc_count coll in
  let same what = Alcotest.(check int) what before (Collection.doc_count coll) in
  let q =
    "<r>{for $b in doc(\"books.xml\")//book return <t>{$b/title}</t>}</r>"
  in
  ignore (Engine.run e q);
  same "run";
  ignore (Engine.run_prepared e (Engine.prepare e q));
  same "run_prepared";
  ignore (Engine.explain_analyze e q);
  same "explain_analyze";
  (match Engine.run_with_timeout e ~seconds:60.0 q with
  | Standoff_util.Timing.Finished _ -> ()
  | Standoff_util.Timing.Timed_out _ -> Alcotest.fail "run_with_timeout: DNF");
  same "run_with_timeout";
  (* A fuel deadline fires on an exact checkpoint; every fuel below the
     first that completes kills the run somewhere, between constructors
     included.  The result cache is off here: a hit evaluates nothing. *)
  let e = Engine.create ~cache:Engine.Cache_off coll in
  let rec sweep fuel =
    match
      Engine.run e ~deadline:(Standoff_util.Timing.deadline_with_fuel fuel) q
    with
    | _ -> fuel
    | exception Standoff_util.Timing.Deadline_exceeded ->
        same (Printf.sprintf "killed at fuel %d" fuel);
        sweep (fuel + 1)
  in
  Alcotest.(check bool) "some runs were killed" true (sweep 0 > 1);
  same "after the deadline sweep"

let test_arena_tables_do_not_leak () =
  (* A StandOff step over constructed nodes extracts their annotation
     table for the run only; nothing of it may stay behind. *)
  let e = make_engine () in
  let q =
    "count(<a><b start=\"1\" end=\"5\"/><c start=\"2\" end=\"3\"/></a>\
     //b/select-narrow::c)"
  in
  Alcotest.(check string) "c inside b" "1" (Engine.run e q).Engine.serialized;
  (* Words the engine keeps alive: its collection, catalogue and
     caches.  [Gc.stat]'s [live_words] is not exact enough under
     OCaml 5 to measure a few words per run; reachability is. *)
  let live () =
    Gc.full_major ();
    Obj.reachable_words (Obj.repr e)
  in
  for _ = 1 to 100 do
    ignore (Engine.run e q)
  done;
  let runs = 2000 in
  let w0 = live () in
  for _ = 1 to runs do
    ignore (Engine.run e q)
  done;
  let grown = live () - w0 in
  if grown >= 10 * runs then
    Alcotest.failf "%d words more kept alive after %d runs" grown runs

(* ------------------------------------------------------------ *)
(* StandOff axes in query syntax                                 *)

let so_query expr = "declare option standoff-type \"xs:integer\";\n" ^ expr

let test_standoff_axes_table31 () =
  let q op =
    so_query
      (Printf.sprintf
         "for $s in doc(\"figure1.xml\")//music[@artist = \"U2\"]/%s::shot \
          return string($s/@id)"
         op)
  in
  check "select-narrow" "Intro" (q "select-narrow");
  check "select-wide" "Intro Interview" (q "select-wide");
  check "reject-narrow" "Interview Outro" (q "reject-narrow");
  check "reject-wide" "Outro" (q "reject-wide")

let test_standoff_axes_all_strategies () =
  List.iter
    (fun strategy ->
      check ~strategy "wide under strategy" "Intro Interview"
        (so_query
           "for $s in doc(\"figure1.xml\")//music[@artist = \"U2\"]\
            /select-wide::shot return string($s/@id)"))
    Config.all_strategies

let test_standoff_function_form () =
  (* Alternative 3: built-in function with candidate sequence. *)
  check "function form" "Intro"
    (so_query
       "for $s in select-narrow(doc(\"figure1.xml\")//music[@artist = \"U2\"], \
        doc(\"figure1.xml\")//shot) return string($s/@id)");
  check "function form without candidates + name filter" "Intro"
    (so_query
       "for $s in select-narrow(doc(\"figure1.xml\")//music[@artist = \"U2\"])\
        /self::shot return string($s/@id)")

let test_standoff_option_renaming () =
  let coll = Collection.create () in
  ignore
    (Collection.load_string coll ~name:"t.xml"
       "<t><a from=\"0\" upto=\"10\"/><b from=\"2\" upto=\"5\"/></t>");
  let e = Engine.create coll in
  let r =
    Engine.run e
      "declare option standoff-start \"from\";\n\
       declare option standoff-end \"upto\";\n\
       for $x in doc(\"t.xml\")//a/select-narrow::b return name($x)"
  in
  Alcotest.(check string) "renamed attributes" "b" r.Engine.serialized

let test_standoff_region_elements () =
  let coll = Collection.create () in
  ignore
    (Collection.load_string coll ~name:"t.xml"
       "<t><file><region><start>0</start><end>9</end></region>\
        <region><start>100</start><end>109</end></region></file>\
        <blocka><region><start>2</start><end>5</end></region></blocka>\
        <blockb><region><start>2</start><end>5</end></region>\
        <region><start>50</start><end>60</end></region></blockb></t>");
  let e = Engine.create coll in
  let run q = (Engine.run e ("declare option standoff-region \"region\";\n" ^ q)).Engine.serialized in
  (* Containment is non-strict, so file contains itself; blocka is
     fully inside file's regions; blockb has a region in the gap, so
     containment fails but overlap holds. *)
  Alcotest.(check string) "narrow multi-region" "file blocka"
    (run "for $x in doc(\"t.xml\")//file/select-narrow::* return name($x)");
  Alcotest.(check string) "wide multi-region" "file blocka blockb"
    (run "for $x in doc(\"t.xml\")//file/select-wide::* return name($x)");
  Alcotest.(check string) "narrow excluding self" "blocka"
    (run
       "for $x in doc(\"t.xml\")//file/select-narrow::*[name(.) != \"file\"] \
        return name($x)")

let test_udf_figure3 () =
  (* The paper's Figure 3 UDF, verbatim semantics: containment via
     start/end attributes with a candidate sequence parameter. *)
  let q =
    "declare function local:select-narrow($input as node()*, \
     $candidates as node()*) as node()* {\n\
    \  (for $q in $input\n\
    \   for $p in $candidates\n\
    \   where $p/@start >= $q/@start and $p/@end <= $q/@end\n\
    \     and root($p) = root($q)\n\
    \   return $p)/.\n\
     };\n\
     for $s in local:select-narrow(doc(\"figure1.xml\")\
     //music[@artist = \"U2\"], doc(\"figure1.xml\")//shot)\n\
     return string($s/@id)"
  in
  check "figure 3 UDF" "Intro" q

(* The paper's Figure 2 UDF, verbatim: no candidate sequence, the inner
   loop ranges over root($q)//*.  Declared under the name of the
   built-in, which it must shadow. *)
let test_udf_figure2 () =
  let q =
    "declare module standoff = \"http://w3c.org/tr/standoff/\";\n\
     declare function select-narrow($input as node()*) as node()* {\n\
    \  (for $q in $input\n\
    \   for $p in root($q)//*\n\
    \   where $p/@start >= $q/@start\n\
    \     and $p/@end <= $q/@end\n\
    \   return $p)/.\n\
     };\n\
     for $s in select-narrow(doc(\"figure1.xml\")//music[@artist = \"U2\"])\
     /self::shot\n\
     return string($s/@id)"
  in
  check "figure 2 UDF" "Intro" q

(* Recursive user functions terminate through the empty-loop cutoff:
   the recursive branch of the conditional runs under the iterations
   that took it, which eventually is none. *)
let test_udf_recursion () =
  check "factorial" "120"
    "declare function local:fact($n) {\n\
    \  if ($n <= 1) then 1 else $n * local:fact($n - 1)\n\
     };\n\
     local:fact(5)";
  check "fibonacci" "1 1 2 3 5 8 13"
    "declare function local:fib($n) {\n\
    \  if ($n <= 2) then 1 else local:fib($n - 1) + local:fib($n - 2)\n\
     };\n\
     for $i in 1 to 7 return local:fib($i)";
  check "recursive sequence build" "5 4 3 2 1"
    "declare function local:countdown($n) {\n\
    \  if ($n = 0) then () else ($n, local:countdown($n - 1))\n\
     };\n\
     local:countdown(5)";
  (* Recursion over nodes: depth of the tree. *)
  check "tree depth" "3"
    "declare function local:depth($n) {\n\
    \  if (empty($n/*)) then 1\n\
    \  else 1 + max(for $c in $n/* return local:depth($c))\n\
     };\n\
     local:depth(doc(\"books.xml\")/books)"

let test_udf_nontermination_rejected () =
  let q = "declare function local:f($x) { local:f($x) };\nlocal:f(1)" in
  Alcotest.(check bool) "runaway recursion rejected" true
    (match run q with
    | exception Err.Error msg ->
        let contains s sub =
          let n = String.length sub in
          let rec scan i =
            i + n <= String.length s && (String.sub s i n = sub || scan (i + 1))
          in
          scan 0
        in
        contains msg "recursion depth"
    | _ -> false)

(* Extension builtins: region accessors, §3.1 predicates, Allen
   relations, and BLOB snippets. *)
let test_standoff_builtins () =
  check "standoff-start" "8"
    "standoff-start(doc(\"figure1.xml\")//shot[@id = \"Interview\"])";
  check "standoff-end" "64"
    "standoff-end(doc(\"figure1.xml\")//shot[@id = \"Interview\"])";
  check "standoff-contains true" "true"
    "standoff-contains(doc(\"figure1.xml\")//music[@artist = \"U2\"], \
     doc(\"figure1.xml\")//shot[@id = \"Intro\"])";
  check "standoff-contains false" "false"
    "standoff-contains(doc(\"figure1.xml\")//music[@artist = \"U2\"], \
     doc(\"figure1.xml\")//shot[@id = \"Outro\"])";
  check "standoff-overlaps" "true"
    "standoff-overlaps(doc(\"figure1.xml\")//music[@artist = \"U2\"], \
     doc(\"figure1.xml\")//shot[@id = \"Interview\"])";
  check "standoff-relation starts" "starts"
    "standoff-relation(doc(\"figure1.xml\")//shot[@id = \"Intro\"], \
     doc(\"figure1.xml\")//music[@artist = \"U2\"])";
  check "standoff-relation overlaps" "overlaps"
    "standoff-relation(doc(\"figure1.xml\")//shot[@id = \"Interview\"], \
     doc(\"figure1.xml\")//music[@artist = \"Bach\"])";
  check "standoff-relation preceded-by" "preceded-by"
    "standoff-relation(doc(\"figure1.xml\")//shot[@id = \"Outro\"], \
     doc(\"figure1.xml\")//music[@artist = \"U2\"])";
  check "non-annotation yields empty" ""
    "standoff-start(doc(\"figure1.xml\")//video)"

let test_standoff_snippet () =
  let coll = Collection.create () in
  ignore
    (Collection.load_string coll ~name:"notes.xml"
       "<notes><word start=\"0\" end=\"4\"/><word start=\"6\" end=\"10\"/>\
        <gap start=\"4\" end=\"6\"/></notes>");
  Collection.add_blob coll
    (Standoff_store.Blob.of_string ~name:"notes.txt" "hello world");
  let e = Engine.create coll in
  let run q = (Engine.run e q).Engine.serialized in
  Alcotest.(check string) "first word" "hello"
    (run "standoff-snippet((doc(\"notes.xml\")//word)[1], \"notes.txt\")");
  Alcotest.(check string) "second word" "world"
    (run "standoff-snippet((doc(\"notes.xml\")//word)[2], \"notes.txt\")");
  Alcotest.(check bool) "missing blob errors" true
    (match run "standoff-snippet((doc(\"notes.xml\")//word)[1], \"no.bin\")" with
    | exception Err.Error _ -> true
    | _ -> false)

(* The final /. of Figure 2: the self step deduplicates and restores
   document order. *)
let test_dot_step_dedup () =
  check "dedup via /." "2"
    "count((for $b in doc(\"books.xml\")//book[@year = 2000] \
     return ($b, $b))/.)"

(* ------------------------------------------------------------ *)
(* Errors                                                        *)

let expect_error name q =
  match run q with
  | exception Err.Error _ -> ()
  | exception Lexer.Syntax_error _ -> ()
  | r -> Alcotest.failf "%s: expected an error, got %S" name r

let test_errors () =
  expect_error "unbound var" "$nope";
  expect_error "unknown function" "frobnicate(1)";
  expect_error "missing doc" "doc(\"missing.xml\")";
  expect_error "syntax" "for $x in";
  expect_error "bad comparison" "1 = \"x\"";
  expect_error "context absent" "count(//book)";
  expect_error "arity" "count(1, 2)"

let test_timeout () =
  let e = make_engine () in
  match
    Engine.run_with_timeout e ~seconds:0.05
      "count(for $a in 1 to 1000 for $b in 1 to 1000 \
       for $c in 1 to 100 return $a)"
  with
  | Standoff_util.Timing.Timed_out _ -> ()
  | Standoff_util.Timing.Finished _ ->
      (* Plausible on a very fast machine; accept but note the size. *)
      ()

(* Engine-level agreement: on random annotation documents, every
   strategy returns the same answer for every axis, through the full
   parse/compile/evaluate pipeline (nested inside a for-loop so the
   loop-lifted path is really exercised). *)
let qcheck_engine_strategies_agree =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 10) (pair (int_bound 50) (int_bound 20)))
        (list_size (1 -- 10) (pair (int_bound 50) (int_bound 20))))
  in
  let print (xs, ys) =
    let f = List.map (fun (s, w) -> Printf.sprintf "[%d,%d]" s (s + w)) in
    Printf.sprintf "a=%s b=%s" (String.concat ";" (f xs)) (String.concat ";" (f ys))
  in
  QCheck.Test.make ~name:"engine: all strategies agree on random documents"
    ~count:100
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
      let e = Engine.create coll in
      List.for_all
        (fun axis ->
          let q =
            Printf.sprintf
              "for $x in doc(\"r.xml\")//a return <g>{count($x/%s::b)}</g>"
              axis
          in
          let expected =
            (Engine.run e ~strategy:Config.Loop_lifted q)
              .Engine.serialized
          in
          List.for_all
            (fun strategy ->
              (Engine.run e ~strategy q).Engine.serialized
              = expected)
            Config.all_strategies)
        [ "select-narrow"; "select-wide"; "reject-narrow"; "reject-wide" ])

(* All four strategies agree on a nested StandOff query (the Q2-like
   shape with the axis inside a for-loop). *)
let test_strategies_agree_nested () =
  let q =
    so_query
      "for $m in doc(\"figure1.xml\")//music \
       return <r>{count($m/select-wide::shot)}</r>"
  in
  let expected = run ~strategy:Config.Loop_lifted q in
  List.iter
    (fun strategy ->
      Alcotest.(check string)
        (Config.strategy_to_string strategy)
        expected (run ~strategy q))
    Config.all_strategies

let () =
  Alcotest.run "xquery"
    [
      ( "basics",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "sequences" `Quick test_sequences;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "logic" `Quick test_logic;
          Alcotest.test_case "if" `Quick test_if;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "declare variable" `Quick test_declare_variable;
        ] );
      ( "flwor",
        [
          Alcotest.test_case "flwor" `Quick test_flwor;
          Alcotest.test_case "quantified" `Quick test_quantified;
          Alcotest.test_case "order by" `Quick test_order_by;
        ] );
      ( "functions",
        [
          Alcotest.test_case "builtins" `Quick test_functions;
          Alcotest.test_case "more builtins" `Quick test_more_builtins;
        ] );
      ( "set-ops",
        [ Alcotest.test_case "intersect/except/union" `Quick test_set_operations ] );
      ( "paths",
        [
          Alcotest.test_case "basic" `Quick test_paths_basic;
          Alcotest.test_case "predicates" `Quick test_paths_predicates;
          Alcotest.test_case "context doc" `Quick test_paths_context;
          Alcotest.test_case "union" `Quick test_path_union;
          Alcotest.test_case "arithmetic over nodes" `Quick
            test_arith_over_nodes;
          Alcotest.test_case "dot step dedup" `Quick test_dot_step_dedup;
        ] );
      ( "constructors",
        [
          Alcotest.test_case "basic" `Quick test_constructor_basic;
          Alcotest.test_case "node copies" `Quick test_constructor_copies_nodes;
          Alcotest.test_case "constructed documents have no name" `Quick
            test_constructed_not_by_name;
          Alcotest.test_case "constructing runs leave the collection" `Quick
            test_constructing_runs_leave_collection;
          Alcotest.test_case "arena tables do not leak" `Quick
            test_arena_tables_do_not_leak;
        ] );
      ( "standoff",
        [
          Alcotest.test_case "table 3.1 via axes" `Quick
            test_standoff_axes_table31;
          Alcotest.test_case "all strategies" `Quick
            test_standoff_axes_all_strategies;
          Alcotest.test_case "function form" `Quick test_standoff_function_form;
          Alcotest.test_case "option renaming" `Quick
            test_standoff_option_renaming;
          Alcotest.test_case "region elements" `Quick
            test_standoff_region_elements;
          Alcotest.test_case "figure 2 UDF" `Quick test_udf_figure2;
          Alcotest.test_case "figure 3 UDF" `Quick test_udf_figure3;
          Alcotest.test_case "extension builtins" `Quick
            test_standoff_builtins;
          Alcotest.test_case "blob snippets" `Quick test_standoff_snippet;
          Alcotest.test_case "recursive UDFs" `Quick test_udf_recursion;
          Alcotest.test_case "runaway recursion rejected" `Quick
            test_udf_nontermination_rejected;
          Alcotest.test_case "nested strategies agree" `Quick
            test_strategies_agree_nested;
          QCheck_alcotest.to_alcotest qcheck_engine_strategies_agree;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "timeout" `Quick test_timeout;
        ] );
    ]
