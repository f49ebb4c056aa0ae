module Vec = Standoff_util.Vec
module Radix = Standoff_util.Radix
module Collection = Standoff_store.Collection

(* Doc ids stay below 2^31 (arena ids start at 2^30) and pre ranks
   below 2^31, so a key fits a 63-bit int and stays non-negative. *)
let key ~doc_id ~pre = (doc_id lsl 31) lor pre
let key_doc k = k lsr 31
let key_pre k = k land 0x7FFF_FFFF
(* Document 0's keys are its pres. *)
let keys_of_pres ~doc_id pres =
  if doc_id = 0 then pres
  else
    let base = key ~doc_id ~pre:0 in
    Array.map (fun pre -> base lor pre) pres

let item_of_key k = Item.Node { Collection.doc_id = key_doc k; pre = key_pre k }

type column =
  | Nodes of int array
  | Items of Item.t array

type t = {
  iters : int array;
  col : column;
}

let empty = { iters = [||]; col = Nodes [||] }

let check_grouped iters =
  let n = Array.length iters in
  let rec loop i =
    if i >= n then true
    else if iters.(i - 1) > iters.(i) then false
    else loop (i + 1)
  in
  n = 0 || loop 1

let checked iters col len =
  if Array.length iters <> len then
    invalid_arg "Table.make: column length mismatch";
  if not (check_grouped iters) then
    invalid_arg "Table.make: iters not non-decreasing";
  { iters; col }

let make iters items = checked iters (Items items) (Array.length items)
let of_nodes iters keys = checked iters (Nodes keys) (Array.length keys)

(* A boxed column that holds nodes only, as keys.  An atomic first
   item answers after one test. *)
let keys_of_items items =
  if Array.for_all (function Item.Node _ -> true | _ -> false) items then
    Some
      (Array.map
         (function
           | Item.Node n -> key ~doc_id:n.Collection.doc_id ~pre:n.Collection.pre
           | _ -> assert false)
         items)
  else None

let col_of_items items =
  match keys_of_items items with Some keys -> Nodes keys | None -> Items items

(* Row selection, for either column form. *)
let pick src rows = Array.map (fun r -> Array.unsafe_get src r) rows

let select col rows =
  match col with
  | Nodes keys -> Nodes (pick keys rows)
  | Items items -> Items (pick items rows)

let const ~loop items =
  let items = Array.of_list items in
  let k = Array.length items and n = Array.length loop in
  {
    iters = Array.init (n * k) (fun i -> loop.(i / k));
    col = select (col_of_items items) (Array.init (n * k) (fun i -> i mod k));
  }

(* The node form lasts until the first row that is not a node. *)
type builder = {
  b_iters : int Vec.t;
  b_keys : int Vec.t;
  mutable b_items : Item.t Vec.t option;
}

let builder () = { b_iters = Vec.create (); b_keys = Vec.create (); b_items = None }

let boxed b =
  match b.b_items with
  | Some v -> v
  | None ->
      let v = Vec.create () in
      Vec.iter (fun k -> Vec.push v (item_of_key k)) b.b_keys;
      b.b_items <- Some v;
      v

let push_node b iter k =
  Vec.push b.b_iters iter;
  match b.b_items with
  | None -> Vec.push b.b_keys k
  | Some v -> Vec.push v (item_of_key k)

let push b iter item =
  match (b.b_items, item) with
  | None, Item.Node n ->
      push_node b iter (key ~doc_id:n.Collection.doc_id ~pre:n.Collection.pre)
  | _ ->
      Vec.push b.b_iters iter;
      Vec.push (boxed b) item

let push_row b iter t r =
  match t.col with
  | Nodes keys -> push_node b iter keys.(r)
  | Items items -> push b iter items.(r)

let build b =
  let iters = Vec.to_array b.b_iters in
  match b.b_items with
  | None -> of_nodes iters (Vec.to_array b.b_keys)
  | Some v -> make iters (Vec.to_array v)

let row_count t = Array.length t.iters
let iter_at t i = t.iters.(i)

let item_at t i =
  match t.col with Nodes keys -> item_of_key keys.(i) | Items items -> items.(i)

let node_keys t =
  match t.col with Nodes keys -> Some keys | Items items -> keys_of_items items

let iter_node_rows t f =
  match t.col with
  | Nodes keys -> Array.iteri f keys
  | Items items ->
      Array.iteri
        (fun r -> function
          | Item.Node n -> f r (key ~doc_id:n.Collection.doc_id ~pre:n.Collection.pre)
          | Item.Attribute _ | Item.Bool _ | Item.Int _ | Item.Float _
          | Item.Str _ ->
              ())
        items

(* A forward cursor over the iteration groups.  Seeks never move
   back, so reading a table group by group along a sorted loop is one
   pass over its [iters] column. *)
type cursor = {
  c_iters : int array;
  mutable lo : int;
  mutable hi : int;
}

let cursor t = { c_iters = t.iters; lo = 0; hi = 0 }

let seek c iter =
  let iters = c.c_iters in
  if not (c.lo < c.hi && Array.unsafe_get iters c.lo = iter) then begin
    let n = Array.length iters in
    let r = ref c.lo in
    while !r < n && Array.unsafe_get iters !r < iter do
      incr r
    done;
    c.lo <- !r;
    while !r < n && Array.unsafe_get iters !r = iter do
      incr r
    done;
    c.hi <- !r
  end

let group_list t c = List.init (c.hi - c.lo) (fun k -> item_at t (c.lo + k))

let offsets t ~n =
  let first = Array.make (n + 1) 0 in
  Array.iter (fun it -> first.(it + 1) <- first.(it + 1) + 1) t.iters;
  for i = 1 to n do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  first

let to_sequence t =
  let n = row_count t in
  if n > 0 && t.iters.(0) <> t.iters.(n - 1) then
    invalid_arg "Table.to_sequence: more than one iteration present";
  List.init n (item_at t)

let distinct sorted =
  let n = Array.length sorted in
  let first i = i = 0 || sorted.(i - 1) <> sorted.(i) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if first i then incr count
  done;
  let out = Array.make !count 0 and k = ref 0 in
  for i = 0 to n - 1 do
    if first i then begin
      out.(!k) <- sorted.(i);
      incr k
    end
  done;
  out

let iters_present t = distinct t.iters

let doc_shards iters keys =
  let n = Array.length keys in
  if n = 0 then []
  else
    let d0 = key_doc keys.(0) in
    let rec one_doc i = i >= n || (key_doc keys.(i) = d0 && one_doc (i + 1)) in
    if one_doc 1 then
      [ (d0, iters, if d0 = 0 then keys else Array.map key_pre keys) ]
    else begin
      let by_doc = Hashtbl.create 4 in
      Array.iteri
        (fun r k ->
          let d = key_doc k in
          let iv, pv =
            match Hashtbl.find_opt by_doc d with
            | Some cols -> cols
            | None ->
                let cols = (Vec.create (), Vec.create ()) in
                Hashtbl.add by_doc d cols;
                cols
          in
          Vec.push iv iters.(r);
          Vec.push pv (key_pre k))
        keys;
      Hashtbl.fold
        (fun d (iv, pv) acc -> (d, Vec.to_array iv, Vec.to_array pv) :: acc)
        by_doc []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    end

let map_items f t =
  { t with col = col_of_items (Array.init (row_count t) (fun r -> f (item_at t r))) }

let take_rows t rows = { iters = pick t.iters rows; col = select t.col rows }

let filter p t =
  let rows = Vec.create () in
  for r = 0 to row_count t - 1 do
    if p (item_at t r) then Vec.push rows r
  done;
  take_rows t (Vec.to_array rows)

let restrict t ~keep =
  let rows = Vec.create () and c = cursor t in
  Array.iter
    (fun iter ->
      seek c iter;
      for r = c.lo to c.hi - 1 do
        Vec.push rows r
      done)
    keep;
  take_rows t (Vec.to_array rows)

(* Per-iteration concatenation is a one-pass merge on iter with
   [c1]'s group emitted before [c2]'s for equal iters. *)
let merge_by_iter i1 c1 i2 c2 =
  let n1 = Array.length i1 and n2 = Array.length i2 in
  let iters = Array.make (n1 + n2) 0 in
  let col = Array.make (n1 + n2) (if n1 > 0 then c1.(0) else c2.(0)) in
  let i = ref 0 and j = ref 0 in
  for k = 0 to n1 + n2 - 1 do
    if !j >= n2 || (!i < n1 && i1.(!i) <= i2.(!j)) then begin
      iters.(k) <- i1.(!i);
      col.(k) <- c1.(!i);
      incr i
    end
    else begin
      iters.(k) <- i2.(!j);
      col.(k) <- c2.(!j);
      incr j
    end
  done;
  (iters, col)

let boxed_col t =
  match t.col with Items items -> items | Nodes keys -> Array.map item_of_key keys

let append2 t1 t2 =
  if row_count t1 = 0 then t2
  else if row_count t2 = 0 then t1
  else
    match (t1.col, t2.col) with
    | Nodes k1, Nodes k2 ->
        let iters, keys = merge_by_iter t1.iters k1 t2.iters k2 in
        { iters; col = Nodes keys }
    | _ ->
        let iters, items =
          merge_by_iter t1.iters (boxed_col t1) t2.iters (boxed_col t2)
        in
        { iters; col = Items items }

let concat = function [] -> empty | t :: ts -> List.fold_left append2 t ts

(* Step results, and loops over them, are usually sorted already: one
   comparison per row confirms it before any sorting is paid for. *)
let in_order iters lt =
  let n = Array.length iters in
  let rec ok i = i >= n || ((iters.(i - 1) <> iters.(i) || lt (i - 1) i) && ok (i + 1)) in
  ok 1

let distinct_doc_order t =
  match t.col with
  | Nodes keys ->
      if in_order t.iters (fun a b -> keys.(a) < keys.(b)) then t
      else begin
        (* Two stable radix passes order the rows by (iter, key). *)
        let perm = Array.init (Array.length keys) Fun.id in
        Radix.sort_by_ints keys perm;
        Radix.sort_by_ints t.iters perm;
        let rows = Vec.create () in
        Array.iteri
          (fun i r ->
            let p = if i = 0 then -1 else perm.(i - 1) in
            if p < 0 || t.iters.(p) <> t.iters.(r) || keys.(p) <> keys.(r) then
              Vec.push rows r)
          perm;
        take_rows t (Vec.to_array rows)
      end
  | Items items ->
      if in_order t.iters (fun a b -> Item.compare_doc_order items.(a) items.(b) < 0)
      then t
      else begin
        let b = builder () in
        let n = row_count t in
        let i = ref 0 in
        while !i < n do
          let iter = t.iters.(!i) in
          let j = ref !i in
          while !j < n && t.iters.(!j) = iter do
            incr j
          done;
          let group = Array.sub items !i (!j - !i) in
          Array.sort Item.compare_doc_order group;
          Array.iteri
            (fun k item ->
              if k = 0 || not (Item.equal group.(k - 1) item) then push b iter item)
            group;
          i := !j
        done;
        build b
      end

let per_iter_aggregate ~loop t ~f =
  let c = cursor t in
  let items =
    Array.map
      (fun iter ->
        seek c iter;
        f (c.hi - c.lo))
      loop
  in
  { iters = Array.copy loop; col = Items items }

let count ~loop t =
  per_iter_aggregate ~loop t ~f:(fun n -> Item.Int (Int64.of_int n))

let exists ~loop t = per_iter_aggregate ~loop t ~f:(fun n -> Item.Bool (n > 0))

type expansion = {
  inner_loop : int array;
  outer_of_inner : int array;
  var_table : t;
  pos_table : t;
}

let expand t =
  let n = row_count t in
  let inner_loop = Array.init n (fun i -> i) in
  let pos_items = Array.make n (Item.Bool false) in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    if i > 0 && t.iters.(i - 1) = t.iters.(i) then incr pos else pos := 1;
    pos_items.(i) <- Item.Int (Int64.of_int !pos)
  done;
  {
    inner_loop;
    outer_of_inner = Array.copy t.iters;
    var_table = { iters = Array.copy inner_loop; col = t.col };
    pos_table = { iters = Array.copy inner_loop; col = Items pos_items };
  }

let expand_last t =
  let n = row_count t in
  let items = Array.make n (Item.Bool false) in
  let lo = ref 0 in
  while !lo < n do
    let hi = ref (!lo + 1) in
    while !hi < n && t.iters.(!hi) = t.iters.(!lo) do
      incr hi
    done;
    let last = Item.Int (Int64.of_int (!hi - !lo)) in
    Array.fill items !lo (!hi - !lo) last;
    lo := !hi
  done;
  { iters = Array.init n Fun.id; col = Items items }

(* Two passes along the cursor: size the result, then fill it. *)
let lift t ~outer_of_inner =
  let c = cursor t in
  let total = ref 0 in
  Array.iter
    (fun outer ->
      seek c outer;
      total := !total + (c.hi - c.lo))
    outer_of_inner;
  let iters = Array.make !total 0 and rows = Array.make !total 0 in
  let c = cursor t and k = ref 0 in
  Array.iteri
    (fun inner outer ->
      seek c outer;
      for r = c.lo to c.hi - 1 do
        iters.(!k) <- inner;
        rows.(!k) <- r;
        incr k
      done)
    outer_of_inner;
  { iters; col = select t.col rows }

let backmap t ~outer_of_inner =
  (* Inner iters are sorted and outer_of_inner is non-decreasing, so the
     renamed column stays grouped and the inner order realises the
     per-outer-iteration concatenation. *)
  { t with iters = Array.map (fun inner -> outer_of_inner.(inner)) t.iters }

let pp fmt t =
  Format.fprintf fmt "@[<v>iter|item@,";
  for i = 0 to row_count t - 1 do
    Format.fprintf fmt "%4d|%a@," t.iters.(i) Item.pp (item_at t i)
  done;
  Format.fprintf fmt "@]"
