module Vec = Standoff_util.Vec
module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Item = Standoff_relalg.Item
module Table = Standoff_relalg.Table

exception Not_a_node of Item.t

(* Split the context table into per-document row streams, preserving
   (iter, pre) order within each document.  Attribute items map to
   their owner for the Parent axis and vanish otherwise; the document
   node participates like any other node. *)
let partition_by_doc (context : Table.t) ~keep_attribute_owner =
  match Table.node_keys context with
  | Some keys -> Table.doc_shards context.Table.iters keys
  | None ->
      let iters = Vec.create () and keys = Vec.create () in
      let push iter (n : Collection.node) =
        Vec.push iters iter;
        Vec.push keys (Table.key ~doc_id:n.Collection.doc_id ~pre:n.Collection.pre)
      in
      for r = 0 to Table.row_count context - 1 do
        match Table.item_at context r with
        | Item.Node n -> push (Table.iter_at context r) n
        | Item.Attribute (owner, _, _) ->
            if keep_attribute_owner then push (Table.iter_at context r) owner
        | (Item.Bool _ | Item.Int _ | Item.Float _ | Item.Str _) as item ->
            raise (Not_a_node item)
      done;
      Table.doc_shards (Vec.to_array iters) (Vec.to_array keys)

(* A fused positional predicate: keep the [k]-th row of every
   iteration group.  Step results are per-iteration duplicate-free and
   in document order, so row rank within the group {e is} the XPath
   position. *)
let positional (t : Table.t) k =
  let b = Table.builder () in
  let n = Table.row_count t in
  let r = ref 0 in
  while !r < n do
    let iter = Table.iter_at t !r in
    let lo = !r in
    while !r < n && Table.iter_at t !r = iter do
      incr r
    done;
    if k >= 1 && lo + k - 1 < !r then Table.push_row b iter t (lo + k - 1)
  done;
  Table.build b

(* Context rows come grouped by document: look each document, and the
   interned id of attribute [name] in it, up once per run of rows. *)
let doc_lookup coll ~name =
  let last = ref None in
  fun doc_id ->
    match !last with
    | Some ((id, _, _) as hit) when id = doc_id -> hit
    | _ ->
        let d = Collection.doc coll doc_id in
        let hit = (doc_id, d, Doc.name_id d name) in
        last := Some hit;
        hit

let axis_step coll axis ?position ~test (context : Table.t) =
  let keep_attribute_owner = axis = Axes.Parent in
  let parts = partition_by_doc context ~keep_attribute_owner in
  let tables =
    List.map
      (fun (doc_id, context_iters, context_pres) ->
        let doc = Collection.doc coll doc_id in
        let out_iters, out_pres =
          Axes.eval_lifted doc axis ~context_iters ~context_pres ~test
        in
        Table.of_nodes out_iters (Table.keys_of_pres ~doc_id out_pres))
      parts
  in
  (* Folding in ascending doc id keeps each iteration's sequence in
     global document order; per-document results are already sorted and
     duplicate-free. *)
  let out = Table.concat tables in
  match position with None -> out | Some k -> positional out k

(* One pass over the context's rows and each element's attribute
   slice.  A name test compares interned ids. *)
let attribute_step coll ~test (context : Table.t) =
  let b = Table.builder () in
  let all, name =
    match test with
    | Node_test.Any | Node_test.Kind_node -> (true, "")
    | Node_test.Name a -> (false, a)
    | _ -> (false, "")
  in
  let lookup = doc_lookup coll ~name in
  if all || name <> "" then
    Table.iter_node_rows context (fun r k ->
        (* Only elements own attribute rows; other slices are empty. *)
        let doc_id = Table.key_doc k and pre = Table.key_pre k in
        let _, d, name_id = lookup doc_id in
        let owner = { Collection.doc_id; pre } in
        for i = d.Doc.attr_first.(pre) to d.Doc.attr_first.(pre + 1) - 1 do
          let nid = d.Doc.attr_name.(i) in
          if all || nid = name_id then
            Table.push b (Table.iter_at context r)
              (Item.Attribute (owner, Doc.name_of_id d nid, d.Doc.attr_value.(i)))
        done);
  Table.distinct_doc_order (Table.build b)

let attribute_filter coll ~attr ~value (context : Table.t) =
  let b = Table.builder () in
  let lookup = doc_lookup coll ~name:attr in
  Table.iter_node_rows context (fun r k ->
      let _, d, name_id = lookup (Table.key_doc k) in
      let pre = Table.key_pre k in
      let hi = d.Doc.attr_first.(pre + 1) in
      let rec scan i =
        i < hi
        && ((d.Doc.attr_name.(i) = name_id
            && String.equal d.Doc.attr_value.(i) value)
           || scan (i + 1))
      in
      if scan d.Doc.attr_first.(pre) then
        Table.push_row b (Table.iter_at context r) context r);
  Table.build b
