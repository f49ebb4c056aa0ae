(* Tests of the loop-lifted sequence-table model (paper §4.1),
   including the paper's own $x/$y/$z loop-lifting example. *)

module Item = Standoff_relalg.Item
module Table = Standoff_relalg.Table

let str s = Item.Str s
let int i = Item.Int (Int64.of_int i)

let items : Item.t list Alcotest.testable =
  Alcotest.testable
    (Fmt.Dump.list (fun fmt i -> Item.pp fmt i))
    (List.equal Item.equal)

(* A table from [(iter, item)] rows in any order: sorted stably by
   iter, then pushed in that order. *)
let table_of_rows rows =
  let b = Table.builder () in
  List.iter
    (fun (iter, item) -> Table.push b iter item)
    (List.stable_sort (fun (a, _) (b, _) -> compare a b) rows);
  Table.build b

let column t = List.init (Table.row_count t) (Table.item_at t)

(* One iteration's sequence, read through a fresh group cursor. *)
let sequence_of_iter t iter =
  let c = Table.cursor t in
  Table.seek c iter;
  Table.group_list t c

let test_make_checks () =
  Alcotest.(check bool) "decreasing iters rejected" true
    (match Table.make [| 2; 1 |] [| str "a"; str "b" |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "length mismatch rejected" true
    (match Table.make [| 1 |] [||] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_const () =
  let t = Table.const ~loop:[| 1; 2; 3 |] [ str "x"; str "y" ] in
  Alcotest.(check int) "rows" 6 (Table.row_count t);
  Alcotest.check items "iter 2" [ str "x"; str "y" ] (sequence_of_iter t 2);
  Alcotest.check items "absent iter" [] (sequence_of_iter t 5)

(* The paper's running example: for $x in ("twenty","thirty")
   for $y in ("one","two") let $z := ($x,$y) return $z. *)
let test_paper_loop_lifting_example () =
  let outer_loop = [| 1 |] in
  let x_src = Table.const ~loop:outer_loop [ str "twenty"; str "thirty" ] in
  let exp_x = Table.expand x_src in
  (* Inside the $x loop there are two iterations. *)
  Alcotest.(check int) "x iterations" 2 (Array.length exp_x.Table.inner_loop);
  let y_src = Table.const ~loop:exp_x.Table.inner_loop [ str "one"; str "two" ] in
  let exp_y = Table.expand y_src in
  Alcotest.(check int) "y iterations" 4 (Array.length exp_y.Table.inner_loop);
  (* $x lifted into the inner loop: "twenty","twenty","thirty","thirty". *)
  let x_inner =
    Table.lift exp_x.Table.var_table ~outer_of_inner:exp_y.Table.outer_of_inner
  in
  Alcotest.check items "x lifted"
    [ str "twenty"; str "twenty"; str "thirty"; str "thirty" ]
    (List.concat_map
       (fun it -> sequence_of_iter x_inner it)
       (Array.to_list exp_y.Table.inner_loop));
  (* $z := ($x, $y): per-iteration concatenation. *)
  let z = Table.append2 x_inner exp_y.Table.var_table in
  Alcotest.check items "z iter 0" [ str "twenty"; str "one" ]
    (sequence_of_iter z 0);
  Alcotest.check items "z iter 3" [ str "thirty"; str "two" ]
    (sequence_of_iter z 3);
  (* return $z, mapped back through both loops: the 8-row table of the
     paper, then the final sequence. *)
  let back_y = Table.backmap z ~outer_of_inner:exp_y.Table.outer_of_inner in
  Alcotest.(check int) "8 rows" 8 (Table.row_count back_y);
  let back_x =
    Table.backmap back_y ~outer_of_inner:exp_x.Table.outer_of_inner
  in
  Alcotest.check items "final sequence"
    [
      str "twenty"; str "one"; str "twenty"; str "two";
      str "thirty"; str "one"; str "thirty"; str "two";
    ]
    (sequence_of_iter back_x 1)

let test_expand_positions () =
  let t = Table.make [| 1; 1; 3 |] [| str "a"; str "b"; str "c" |] in
  let e = Table.expand t in
  Alcotest.check items "positions restart per iter" [ int 1; int 2; int 1 ]
    (column e.Table.pos_table)

let test_count_exists () =
  let t = Table.make [| 1; 1; 3 |] [| str "a"; str "b"; str "c" |] in
  let loop = [| 1; 2; 3 |] in
  Alcotest.check items "count includes empty iters" [ int 2; int 0; int 1 ]
    (column (Table.count ~loop t));
  Alcotest.check items "exists"
    [ Item.Bool true; Item.Bool false; Item.Bool true ]
    (column (Table.exists ~loop t))

let test_append2_order () =
  let t1 = Table.make [| 1; 2 |] [| str "a"; str "c" |] in
  let t2 = Table.make [| 1; 3 |] [| str "b"; str "d" |] in
  let t = Table.append2 t1 t2 in
  Alcotest.check items "iter 1 keeps order" [ str "a"; str "b" ]
    (sequence_of_iter t 1);
  Alcotest.check items "iter 2" [ str "c" ] (sequence_of_iter t 2);
  Alcotest.check items "iter 3" [ str "d" ] (sequence_of_iter t 3)

let test_distinct_doc_order () =
  let n doc_id pre = Item.Node { Standoff_store.Collection.doc_id; pre } in
  let t =
    Table.make [| 1; 1; 1; 2 |] [| n 0 9; n 0 3; n 0 9; n 1 1 |]
  in
  let d = Table.distinct_doc_order t in
  Alcotest.check items "sorted deduped" [ n 0 3; n 0 9 ]
    (sequence_of_iter d 1);
  Alcotest.check items "iter 2 untouched" [ n 1 1 ] (sequence_of_iter d 2)

let test_filter_map () =
  let t = Table.make [| 1; 1; 2 |] [| int 1; int 2; int 3 |] in
  let even =
    Table.filter
      (function Item.Int i -> Int64.rem i 2L = 0L | _ -> false)
      t
  in
  Alcotest.(check int) "filtered rows" 1 (Table.row_count even);
  let doubled =
    Table.map_items
      (function Item.Int i -> Item.Int (Int64.mul 2L i) | x -> x)
      t
  in
  Alcotest.check items "mapped" [ int 2; int 4 ] (sequence_of_iter doubled 1)

(* A builder keeps push order within an iteration, and the node form
   for as long as every row is a node. *)
let test_builder_forms () =
  let n pre = Item.Node { Standoff_store.Collection.doc_id = 1; pre } in
  let b = Table.builder () in
  List.iter (fun (iter, item) -> Table.push b iter item)
    [ (1, n 4); (2, n 3); (2, n 2) ];
  let t = Table.build b in
  Alcotest.(check bool) "node form" true (Table.node_keys t <> None);
  Alcotest.check items "iter 2 order preserved" [ n 3; n 2 ]
    (sequence_of_iter t 2);
  Table.push b 3 (str "x");
  let t = Table.build b in
  Alcotest.(check bool) "boxed once an atomic arrives" true
    (Table.node_keys t = None);
  Alcotest.check items "all rows kept" [ n 4; n 3; n 2; str "x" ] (column t)

let test_to_sequence_guard () =
  let t = Table.make [| 1; 2 |] [| str "a"; str "b" |] in
  Alcotest.(check bool) "multi-iter rejected" true
    (match Table.to_sequence t with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* lift distributes over iteration structure: lifting a table through
   expand's identity mapping is the identity. *)
let qcheck_lift_identity =
  QCheck.Test.make ~name:"lift through identity outer_of_inner" ~count:300
    QCheck.(list (pair (int_bound 5) small_nat))
    (fun rows ->
      let rows = List.map (fun (it, v) -> (it, int v)) rows in
      let t = table_of_rows rows in
      let iters = Table.iters_present t in
      let lifted = Table.lift t ~outer_of_inner:iters in
      (* Inner iteration i receives iters.(i)'s sequence. *)
      Array.for_all
        (fun i ->
          List.equal Item.equal
            (sequence_of_iter lifted i)
            (sequence_of_iter t iters.(i)))
        (Array.init (Array.length iters) Fun.id))

let qcheck_append2_rowcount =
  QCheck.Test.make ~name:"append2 preserves rows" ~count:300
    QCheck.(pair (list (pair (int_bound 5) small_nat)) (list (pair (int_bound 5) small_nat)))
    (fun (r1, r2) ->
      let t1 = table_of_rows (List.map (fun (i, v) -> (i, int v)) r1) in
      let t2 = table_of_rows (List.map (fun (i, v) -> (i, int v)) r2) in
      Table.row_count (Table.append2 t1 t2)
      = Table.row_count t1 + Table.row_count t2)

(* The node form is a representation only: every operation on a table
   of node keys gives the rows the same operation gives on the same
   nodes boxed.  Rows span two documents, and the loop has iterations
   without rows. *)
let node_rows =
  QCheck.(
    list_of_size Gen.(0 -- 12)
      (triple (int_bound 4) (int_bound 1) (int_bound 9)))

let both_forms rows =
  let rows = List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) rows in
  let iters = Array.of_list (List.map (fun (i, _, _) -> i) rows) in
  let nodes =
    Table.of_nodes iters
      (Array.of_list
         (List.map (fun (_, doc_id, pre) -> Table.key ~doc_id ~pre) rows))
  in
  let boxed =
    Table.make (Array.copy iters)
      (Array.of_list
         (List.map
            (fun (_, doc_id, pre) ->
              Item.Node { Standoff_store.Collection.doc_id; pre })
            rows))
  in
  (nodes, boxed)

let same_rows a b =
  Array.to_list a.Table.iters = Array.to_list b.Table.iters
  && List.equal Item.equal (column a) (column b)

let qcheck_node_form_matches_boxed =
  QCheck.Test.make ~name:"node-key tables = boxed tables, row for row"
    ~count:500
    QCheck.(triple node_rows node_rows (list_of_size Gen.(0 -- 6) (int_bound 5)))
    (fun (r1, r2, picks) ->
      let n1, b1 = both_forms r1 and n2, b2 = both_forms r2 in
      let loop = [| 0; 1; 2; 3; 4; 5 |] in
      let keep = Array.of_list (List.sort_uniq compare picks) in
      let outer_of_inner = Array.of_list (List.sort compare picks) in
      let even = function
        | Item.Node n -> n.Standoff_store.Collection.pre mod 2 = 0
        | _ -> false
      in
      let root = function
        | Item.Node n -> Item.Node { n with Standoff_store.Collection.pre = 0 }
        | item -> item
      in
      let copy t =
        let b = Table.builder () in
        for r = 0 to Table.row_count t - 1 do
          Table.push_row b (Table.iter_at t r) t r
        done;
        Table.build b
      in
      let unary f = same_rows (f n1) (f b1) in
      let expansion f =
        let en = Table.expand n1 and eb = Table.expand b1 in
        same_rows (f en) (f eb)
        && en.Table.outer_of_inner = eb.Table.outer_of_inner
      in
      same_rows n1 b1 && same_rows n2 b2
      && Table.node_keys n1 = Table.node_keys b1
      && unary copy
      && unary Table.distinct_doc_order
      && unary (Table.filter even)
      && unary (Table.map_items root)
      && unary (Table.restrict ~keep)
      && unary (Table.count ~loop)
      && unary (Table.exists ~loop)
      && unary Table.expand_last
      && unary (Table.lift ~outer_of_inner)
      && unary (fun t -> Table.backmap t ~outer_of_inner:[| 7; 7; 8; 8; 9 |])
      && expansion (fun e -> e.Table.var_table)
      && expansion (fun e -> e.Table.pos_table)
      && same_rows (Table.append2 n1 n2) (Table.append2 b1 b2)
      && same_rows (Table.append2 n1 b2) (Table.append2 b1 n2)
      && same_rows (Table.concat [ n1; n2; n1 ]) (Table.concat [ b1; b2; b1 ])
      && Table.iters_present n1 = Table.iters_present b1
      && Table.offsets n1 ~n:5 = Table.offsets b1 ~n:5
      && List.for_all
           (fun iter -> List.equal Item.equal (sequence_of_iter n1 iter)
                          (sequence_of_iter b1 iter))
           (Array.to_list loop))

(* Document order of keys is (doc_id, pre) order, and the shards of a
   two-document table come out in ascending doc id with row order
   kept. *)
let qcheck_doc_shards =
  QCheck.Test.make ~name:"doc_shards split node rows by document" ~count:300
    node_rows
    (fun rows ->
      let nodes, _ = both_forms rows in
      let keys = Option.get (Table.node_keys nodes) in
      let shards = Table.doc_shards nodes.Table.iters keys in
      List.map (fun (d, _, _) -> d) shards
      = List.sort_uniq compare
          (List.map (fun k -> Table.key_doc k) (Array.to_list keys))
      && List.for_all
           (fun (d, iters, pres) ->
             let mine =
               List.filter
                 (fun (_, k) -> Table.key_doc k = d)
                 (List.combine (Array.to_list nodes.Table.iters)
                    (Array.to_list keys))
             in
             List.map fst mine = Array.to_list iters
             && List.map (fun (_, k) -> Table.key_pre k) mine
                = Array.to_list pres)
           shards)

let () =
  Alcotest.run "relalg"
    [
      ( "table",
        [
          Alcotest.test_case "make checks" `Quick test_make_checks;
          Alcotest.test_case "const" `Quick test_const;
          Alcotest.test_case "paper loop-lifting example" `Quick
            test_paper_loop_lifting_example;
          Alcotest.test_case "expand positions" `Quick test_expand_positions;
          Alcotest.test_case "count/exists" `Quick test_count_exists;
          Alcotest.test_case "append2 order" `Quick test_append2_order;
          Alcotest.test_case "distinct doc order" `Quick test_distinct_doc_order;
          Alcotest.test_case "filter/map" `Quick test_filter_map;
          Alcotest.test_case "builder forms" `Quick test_builder_forms;
          Alcotest.test_case "to_sequence guard" `Quick test_to_sequence_guard;
          QCheck_alcotest.to_alcotest qcheck_lift_identity;
          QCheck_alcotest.to_alcotest qcheck_append2_rowcount;
          QCheck_alcotest.to_alcotest qcheck_node_form_matches_boxed;
          QCheck_alcotest.to_alcotest qcheck_doc_shards;
        ] );
    ]
