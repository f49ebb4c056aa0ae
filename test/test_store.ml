(* Shredded store tests: the pre/size/level encoding, attribute table,
   element index, string values, DOM re-materialisation, and the
   collection/blob layers. *)

module Dom = Standoff_xml.Dom
module Parser = Standoff_xml.Parser
module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Blob = Standoff_store.Blob
module Region = Standoff_interval.Region
module Area = Standoff_interval.Area

let sample =
  "<site><people><person id=\"p0\"><name>Alice</name></person>\
   <person id=\"p1\"><name>Bob</name></person></people>\
   <open_auctions><open_auction id=\"a0\"><bidder><increase>3</increase>\
   </bidder></open_auction></open_auctions></site>"

let doc () = Doc.parse ~name:"sample.xml" sample

let test_shred_counts () =
  let d = doc () in
  (* document + site + people + 2*(person+name+text) + open_auctions +
     open_auction + bidder + increase + text *)
  Alcotest.(check int) "node count" 14 (Doc.node_count d);
  Alcotest.(check int) "attr count" 3 (Doc.attribute_count d);
  Alcotest.(check int) "root pre" 1 (Doc.root d)

let test_invariants () =
  Doc.check_invariants (doc ())

let test_kinds_names () =
  let d = doc () in
  Alcotest.(check bool) "pre 0 document" true (Doc.kind_of d 0 = Doc.Document);
  Alcotest.(check (option string)) "root name" (Some "site") (Doc.name_of d 1);
  Alcotest.(check (option string)) "doc node unnamed" None (Doc.name_of d 0)

let test_children_parent () =
  let d = doc () in
  let site = Doc.root d in
  let kids = Doc.children d site in
  Alcotest.(check int) "site children" 2 (List.length kids);
  List.iter
    (fun c ->
      Alcotest.(check (option int)) "parent" (Some site) (Doc.parent_of d c))
    kids

let test_is_ancestor () =
  let d = doc () in
  let site = Doc.root d in
  Alcotest.(check bool) "doc is ancestor of all" true (Doc.is_ancestor d 0 site);
  Alcotest.(check bool) "site ancestor of last" true
    (Doc.is_ancestor d site (Doc.node_count d - 1));
  Alcotest.(check bool) "not self" false (Doc.is_ancestor d site site);
  Alcotest.(check bool) "not reverse" false (Doc.is_ancestor d (site + 1) site)

let test_attributes () =
  let d = doc () in
  let people = Doc.elements_named d "person" in
  Alcotest.(check int) "two persons" 2 (Array.length people);
  Alcotest.(check (option string)) "first id" (Some "p0")
    (Doc.attribute d people.(0) "id");
  Alcotest.(check (option string)) "second id" (Some "p1")
    (Doc.attribute d people.(1) "id");
  Alcotest.(check (option string)) "absent" None
    (Doc.attribute d people.(0) "name");
  Alcotest.(check (list (pair string string)))
    "attribute list" [ ("id", "p0") ]
    (Doc.attributes d people.(0))

let test_elem_index_sorted () =
  let d = doc () in
  let names = Doc.elements_named d "name" in
  Alcotest.(check int) "two names" 2 (Array.length names);
  Alcotest.(check bool) "sorted" true (names.(0) < names.(1));
  Alcotest.(check int) "unknown name" 0 (Array.length (Doc.elements_named d "zzz"))

let test_string_value () =
  let d = doc () in
  Alcotest.(check string) "whole document" "AliceBob3" (Doc.string_value d 0);
  let names = Doc.elements_named d "name" in
  Alcotest.(check string) "element" "Alice" (Doc.string_value d names.(0))

let test_to_dom_roundtrip () =
  let d = doc () in
  let original = Parser.parse_string sample in
  Alcotest.(check bool) "re-materialised tree equals source" true
    (Dom.equal_node (Dom.Element original.Dom.root) (Doc.to_dom d (Doc.root d)))

let test_iter_children_leaf () =
  let d = doc () in
  let texts = ref 0 in
  for pre = 0 to Doc.node_count d - 1 do
    if Doc.kind_of d pre = Doc.Text then begin
      incr texts;
      Alcotest.(check (list int)) "no children" [] (Doc.children d pre)
    end
  done;
  Alcotest.(check int) "three text nodes" 3 !texts

(* Documents finished from one builder do not share names: each owns
   the pool its own nodes were interned in. *)
let test_builder_own_pools () =
  let b = Doc.builder () in
  Doc.open_element b "a";
  Doc.add_attribute b "x" "1";
  Doc.close_element b;
  let d1 = Doc.finish b ~name:"one" in
  Doc.open_element b "b";
  Doc.close_element b;
  let d2 = Doc.finish b ~name:"two" in
  Alcotest.(check bool) "own names found" true
    (Doc.name_id d1 "a" >= 0 && Doc.name_id d1 "x" >= 0
    && Doc.name_id d2 "b" >= 0);
  Alcotest.(check (list int)) "a sibling's names are not" [ -1; -1; -1 ]
    [ Doc.name_id d1 "b"; Doc.name_id d2 "a"; Doc.name_id d2 "x" ];
  Alcotest.(check (option string)) "second root" (Some "b")
    (Doc.name_of d2 (Doc.root d2))

let test_empty_name_refused () =
  Alcotest.(check bool) "raises" true
    (match Doc.parse ~name:"" "<a/>" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------ *)
(* Random-tree invariants                                        *)

let gen_tree =
  let open QCheck.Gen in
  let rec node depth =
    if depth = 0 then return (Dom.text "t")
    else
      frequency
        [
          (2, return (Dom.text "leaf"));
          ( 4,
            map2
              (fun tag children -> Dom.element tag children)
              (oneofl [ "a"; "b"; "c" ])
              (list_size (0 -- 4) (node (depth - 1))) );
        ]
  in
  map
    (fun children -> Dom.document (Dom.element "root" children))
    (list_size (0 -- 5) (node 4))

let arbitrary_tree =
  QCheck.make ~print:(fun d -> Standoff_xml.Serializer.to_string d) gen_tree

let qcheck_shred_invariants =
  QCheck.Test.make ~name:"shredding invariants on random trees" ~count:300
    arbitrary_tree (fun dom ->
      let d = Doc.of_dom ~name:"t" dom in
      Doc.check_invariants d;
      true)

let qcheck_shred_roundtrip =
  QCheck.Test.make ~name:"to_dom inverts shredding" ~count:300 arbitrary_tree
    (fun dom ->
      let d = Doc.of_dom ~name:"t" dom in
      Dom.equal_node (Dom.Element dom.Dom.root) (Doc.to_dom d (Doc.root d)))

let qcheck_size_is_descendant_count =
  QCheck.Test.make ~name:"size(p) counts proper descendants" ~count:200
    arbitrary_tree (fun dom ->
      let d = Doc.of_dom ~name:"t" dom in
      let ok = ref true in
      for p = 0 to Doc.node_count d - 1 do
        let counted = ref 0 in
        for q = 0 to Doc.node_count d - 1 do
          if Doc.is_ancestor d p q then incr counted
        done;
        if !counted <> Doc.subtree_size d p then ok := false
      done;
      !ok)

(* ------------------------------------------------------------ *)
(* Collection                                                     *)

let test_collection_basics () =
  let coll = Collection.create () in
  let id1 = Collection.load_string coll ~name:"one.xml" "<a><b/></a>" in
  let id2 = Collection.load_string coll ~name:"two.xml" "<c/>" in
  Alcotest.(check int) "ids dense" 1 (id2 - id1);
  Alcotest.(check int) "count" 2 (Collection.doc_count coll);
  Alcotest.(check (option int)) "lookup" (Some id1)
    (Collection.doc_id_of_name coll "one.xml");
  Alcotest.(check (option int)) "missing" None
    (Collection.doc_id_of_name coll "nope.xml")

let test_collection_duplicate () =
  let coll = Collection.create () in
  ignore (Collection.load_string coll ~name:"d.xml" "<a/>");
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Collection.add: duplicate document \"d.xml\"")
    (fun () -> ignore (Collection.load_string coll ~name:"d.xml" "<b/>"))

let test_node_order () =
  let a = { Collection.doc_id = 0; pre = 5 } in
  let b = { Collection.doc_id = 0; pre = 9 } in
  let c = { Collection.doc_id = 1; pre = 0 } in
  Alcotest.(check bool) "same doc by pre" true (Collection.compare_node a b < 0);
  Alcotest.(check bool) "doc id dominates" true (Collection.compare_node b c < 0)

(* ------------------------------------------------------------ *)
(* Blob                                                           *)

let test_blob_append_read () =
  let b = Blob.create ~name:"video.bin" () in
  let r1 = Blob.append b "hello " in
  let r2 = Blob.append b "world" in
  Alcotest.(check string) "r1 span" "[0,5]" (Region.to_string r1);
  Alcotest.(check string) "r2 span" "[6,10]" (Region.to_string r2);
  Alcotest.(check string) "read r2" "world" (Blob.read b r2);
  Alcotest.(check int64) "length" 11L (Blob.length b)

let test_blob_read_area () =
  let b = Blob.of_string ~name:"disk.img" "0123456789" in
  let area = Area.make [ Region.make_int 0 2; Region.make_int 7 9 ] in
  Alcotest.(check string) "scattered blocks" "012789" (Blob.read_area b area)

let test_blob_out_of_range () =
  let b = Blob.of_string ~name:"x" "abc" in
  Alcotest.(check bool) "raises" true
    (match Blob.read b (Region.make_int 1 5) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "store"
    [
      ( "doc",
        [
          Alcotest.test_case "shred counts" `Quick test_shred_counts;
          Alcotest.test_case "invariants" `Quick test_invariants;
          Alcotest.test_case "kinds and names" `Quick test_kinds_names;
          Alcotest.test_case "children/parent" `Quick test_children_parent;
          Alcotest.test_case "is_ancestor" `Quick test_is_ancestor;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "element index" `Quick test_elem_index_sorted;
          Alcotest.test_case "string value" `Quick test_string_value;
          Alcotest.test_case "to_dom roundtrip" `Quick test_to_dom_roundtrip;
          Alcotest.test_case "leaves have no children" `Quick
            test_iter_children_leaf;
          QCheck_alcotest.to_alcotest qcheck_shred_invariants;
          QCheck_alcotest.to_alcotest qcheck_shred_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_size_is_descendant_count;
          Alcotest.test_case "builder documents own their names" `Quick
            test_builder_own_pools;
          Alcotest.test_case "empty document name refused" `Quick
            test_empty_name_refused;
        ] );
      ( "collection",
        [
          Alcotest.test_case "basics" `Quick test_collection_basics;
          Alcotest.test_case "duplicate" `Quick test_collection_duplicate;
          Alcotest.test_case "node order" `Quick test_node_order;
        ] );
      ( "blob",
        [
          Alcotest.test_case "append/read" `Quick test_blob_append_read;
          Alcotest.test_case "read area" `Quick test_blob_read_area;
          Alcotest.test_case "out of range" `Quick test_blob_out_of_range;
        ] );
    ]
