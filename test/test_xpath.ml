(* XPath axis tests: hand-checked steps on a fixed document plus a
   qcheck comparison of every axis against a naive reference
   implementation over random trees. *)

module Dom = Standoff_xml.Dom
module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Item = Standoff_relalg.Item
module Table = Standoff_relalg.Table
module Axes = Standoff_xpath.Axes
module Node_test = Standoff_xpath.Node_test
module Step = Standoff_xpath.Step

let sample =
  "<a><b><c/><d><c/></d></b><e><c/></e><b/></a>"
  (* pres: 0=doc 1=a 2=b 3=c 4=d 5=c 6=e 7=c 8=b *)

let doc () = Doc.parse ~name:"s" sample

let eval d axis context test =
  Array.to_list (Axes.eval d axis ~context:(Array.of_list context) ~test)

let test_descendant () =
  let d = doc () in
  Alcotest.(check (list int)) "all from root" [ 2; 3; 4; 5; 6; 7; 8 ]
    (eval d Axes.Descendant [ 1 ] Node_test.Any);
  Alcotest.(check (list int)) "name test" [ 3; 5; 7 ]
    (eval d Axes.Descendant [ 1 ] (Node_test.Name "c"));
  Alcotest.(check (list int)) "nested contexts pruned" [ 3; 4; 5 ]
    (eval d Axes.Descendant [ 2; 4 ] Node_test.Any)

let test_child () =
  let d = doc () in
  Alcotest.(check (list int)) "root children" [ 2; 6; 8 ]
    (eval d Axes.Child [ 1 ] Node_test.Any);
  Alcotest.(check (list int)) "merged sorted" [ 3; 4; 7 ]
    (eval d Axes.Child [ 2; 6 ] Node_test.Any)

let test_parent_ancestor () =
  let d = doc () in
  Alcotest.(check (list int)) "parent" [ 2; 6 ]
    (eval d Axes.Parent [ 3; 7 ] Node_test.Any);
  Alcotest.(check (list int)) "ancestor" [ 1; 2; 4 ]
    (eval d Axes.Ancestor [ 5 ] Node_test.Any);
  (* Under node() the document node itself is an ancestor. *)
  Alcotest.(check (list int)) "ancestor-or-self" [ 0; 1; 2; 4; 5 ]
    (eval d Axes.Ancestor_or_self [ 5 ] Node_test.Kind_node)

let test_following_preceding () =
  let d = doc () in
  Alcotest.(check (list int)) "following of b" [ 6; 7; 8 ]
    (eval d Axes.Following [ 2 ] Node_test.Any);
  Alcotest.(check (list int)) "preceding of e" [ 2; 3; 4; 5 ]
    (eval d Axes.Preceding [ 6 ] Node_test.Any);
  (* Ancestors are not preceding. *)
  Alcotest.(check (list int)) "preceding of c in d" [ 3 ]
    (eval d Axes.Preceding [ 5 ] Node_test.Any)

let test_siblings () =
  let d = doc () in
  Alcotest.(check (list int)) "following siblings" [ 6; 8 ]
    (eval d Axes.Following_sibling [ 2 ] Node_test.Any);
  Alcotest.(check (list int)) "preceding siblings" [ 2; 6 ]
    (eval d Axes.Preceding_sibling [ 8 ] Node_test.Any)

let test_self () =
  let d = doc () in
  Alcotest.(check (list int)) "self with name test" [ 3 ]
    (eval d Axes.Self [ 3; 4 ] (Node_test.Name "c"))

let test_prune () =
  let d = doc () in
  Alcotest.(check (array int)) "nested removed" [| 1 |]
    (Axes.prune_descendant d [| 1; 2; 5 |]);
  Alcotest.(check (array int)) "disjoint kept" [| 2; 6; 8 |]
    (Axes.prune_descendant d [| 2; 6; 8 |])

let test_axis_names () =
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Axes.axis_to_string a) true
        (Axes.axis_of_string (Axes.axis_to_string a) = a))
    [
      Axes.Self; Axes.Child; Axes.Descendant; Axes.Descendant_or_self;
      Axes.Parent; Axes.Ancestor; Axes.Ancestor_or_self; Axes.Following;
      Axes.Preceding; Axes.Following_sibling; Axes.Preceding_sibling;
    ]

(* ------------------------------------------------------------ *)
(* Reference semantics                                           *)

let reference d axis context test =
  let n = Doc.node_count d in
  let is_anc a b = Doc.is_ancestor d a b in
  let parent p = Doc.parent_of d p in
  let member p c =
    match axis with
    | Axes.Self -> p = c
    | Axes.Child -> parent p = Some c
    | Axes.Descendant -> is_anc c p
    | Axes.Descendant_or_self -> p = c || is_anc c p
    | Axes.Parent -> Some p = parent c
    | Axes.Ancestor -> is_anc p c
    | Axes.Ancestor_or_self -> p = c || is_anc p c
    | Axes.Following -> p > c && not (is_anc c p)
    | Axes.Preceding -> p < c && not (is_anc p c)
    | Axes.Following_sibling -> p > c && parent p = parent c && parent c <> None
    | Axes.Preceding_sibling -> p < c && parent p = parent c && parent c <> None
  in
  List.init n Fun.id
  |> List.filter (fun p ->
         Node_test.matches d test p && List.exists (member p) context)

let gen_tree =
  let open QCheck.Gen in
  let rec node depth =
    if depth = 0 then return (Dom.text "t")
    else
      frequency
        [
          (1, return (Dom.text "x"));
          ( 4,
            map2
              (fun tag children -> Dom.element tag children)
              (oneofl [ "a"; "b"; "c" ])
              (list_size (0 -- 4) (node (depth - 1))) );
        ]
  in
  map
    (fun children -> Dom.document (Dom.element "root" children))
    (list_size (0 -- 5) (node 3))

let all_axes =
  [
    Axes.Self; Axes.Child; Axes.Descendant; Axes.Descendant_or_self;
    Axes.Parent; Axes.Ancestor; Axes.Ancestor_or_self; Axes.Following;
    Axes.Preceding; Axes.Following_sibling; Axes.Preceding_sibling;
  ]

let arbitrary_case =
  QCheck.make
    ~print:(fun (dom, picks, _) ->
      Printf.sprintf "%s with picks %s"
        (Standoff_xml.Serializer.to_string dom)
        (String.concat "," (List.map string_of_int picks)))
    QCheck.Gen.(
      triple gen_tree (list_size (1 -- 5) (int_bound 50)) (int_bound 2))

let qcheck_axes_match_reference =
  QCheck.Test.make ~name:"every axis agrees with naive reference" ~count:300
    arbitrary_case (fun (dom, picks, test_pick) ->
      let d = Doc.of_dom ~name:"t" dom in
      let n = Doc.node_count d in
      let context =
        List.sort_uniq compare (List.map (fun p -> p mod n) picks)
      in
      let test =
        match test_pick with
        | 0 -> Node_test.Any
        | 1 -> Node_test.Kind_node
        | _ -> Node_test.Name "b"
      in
      List.for_all
        (fun axis ->
          eval d axis context test = reference d axis context test)
        all_axes)

(* The loop-lifted variant must equal running the plain axis once per
   iteration. *)
let qcheck_lifted_equals_per_iteration =
  QCheck.Test.make ~name:"eval_lifted = per-iteration eval" ~count:200
    (QCheck.make
       ~print:(fun (dom, rows) ->
         Printf.sprintf "%s rows=%s"
           (Standoff_xml.Serializer.to_string dom)
           (String.concat ","
              (List.map (fun (i, p) -> Printf.sprintf "%d:%d" i p) rows)))
       QCheck.Gen.(pair gen_tree (list_size (1 -- 8) (pair (int_bound 3) (int_bound 50)))))
    (fun (dom, rows) ->
      let d = Doc.of_dom ~name:"t" dom in
      let n = Doc.node_count d in
      let rows =
        List.sort_uniq compare (List.map (fun (i, p) -> (i, p mod n)) rows)
      in
      let context_iters = Array.of_list (List.map fst rows) in
      let context_pres = Array.of_list (List.map snd rows) in
      List.for_all
        (fun axis ->
          let lifted_iters, lifted_pres =
            Axes.eval_lifted d axis ~context_iters ~context_pres
              ~test:Node_test.Any
          in
          let expected =
            List.concat_map
              (fun iter ->
                let context =
                  rows
                  |> List.filter (fun (i, _) -> i = iter)
                  |> List.map snd |> Array.of_list
                in
                Array.to_list (Axes.eval d axis ~context ~test:Node_test.Any)
                |> List.map (fun pre -> (iter, pre)))
              (List.sort_uniq compare (List.map fst rows))
          in
          List.combine (Array.to_list lifted_iters) (Array.to_list lifted_pres)
          = expected)
        all_axes)

(* ------------------------------------------------------------ *)
(* Loop-lifted step over tables                                  *)

let test_lifted_step () =
  let coll = Collection.create () in
  let id = Collection.load_string coll ~name:"s" sample in
  let node pre = Item.Node { Collection.doc_id = id; pre } in
  (* Two iterations with different contexts, one shared table. *)
  let context = Table.make [| 1; 2; 2 |] [| node 2; node 4; node 6 |] in
  let out =
    Step.axis_step coll Axes.Descendant ~test:(Node_test.Name "c") context
  in
  let pres it =
    List.map
      (fun i -> (Item.node_exn i).Collection.pre)
      (let c = Table.cursor out in
       Table.seek c it;
       Table.group_list out c)
  in
  Alcotest.(check (list int)) "iter 1" [ 3; 5 ] (pres 1);
  Alcotest.(check (list int)) "iter 2" [ 5; 7 ] (pres 2)

let test_attribute_step () =
  let coll = Collection.create () in
  let id =
    Collection.load_string coll ~name:"attrs"
      "<r><x id=\"1\" start=\"0\"/><y id=\"2\"/></r>"
  in
  let node pre = Item.Node { Collection.doc_id = id; pre } in
  let context = Table.make [| 1; 1 |] [| node 2; node 3 |] in
  let all = Step.attribute_step coll ~test:Node_test.Any context in
  Alcotest.(check int) "three attributes" 3 (Table.row_count all);
  let ids = Step.attribute_step coll ~test:(Node_test.Name "id") context in
  Alcotest.(check int) "two id attributes" 2 (Table.row_count ids)

let test_step_rejects_atoms () =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"s" sample);
  let context = Table.make [| 1 |] [| Item.Int 3L |] in
  Alcotest.(check bool) "raises" true
    (match Step.axis_step coll Axes.Child ~test:Node_test.Any context with
    | exception Step.Not_a_node _ -> true
    | _ -> false)

let () =
  Alcotest.run "xpath"
    [
      ( "axes",
        [
          Alcotest.test_case "descendant" `Quick test_descendant;
          Alcotest.test_case "child" `Quick test_child;
          Alcotest.test_case "parent/ancestor" `Quick test_parent_ancestor;
          Alcotest.test_case "following/preceding" `Quick
            test_following_preceding;
          Alcotest.test_case "siblings" `Quick test_siblings;
          Alcotest.test_case "self" `Quick test_self;
          Alcotest.test_case "staircase pruning" `Quick test_prune;
          Alcotest.test_case "axis names" `Quick test_axis_names;
          QCheck_alcotest.to_alcotest qcheck_axes_match_reference;
          QCheck_alcotest.to_alcotest qcheck_lifted_equals_per_iteration;
        ] );
      ( "step",
        [
          Alcotest.test_case "loop-lifted step" `Quick test_lifted_step;
          Alcotest.test_case "attribute step" `Quick test_attribute_step;
          Alcotest.test_case "atoms rejected" `Quick test_step_rejects_atoms;
        ] );
    ]
