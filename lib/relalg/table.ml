module Vec = Standoff_util.Vec

type t = {
  iters : int array;
  items : Item.t array;
}

let empty = { iters = [||]; items = [||] }

let check_grouped iters =
  let n = Array.length iters in
  let rec loop i =
    if i >= n then true
    else if iters.(i - 1) > iters.(i) then false
    else loop (i + 1)
  in
  n = 0 || loop 1

let make iters items =
  if Array.length iters <> Array.length items then
    invalid_arg "Table.make: column length mismatch";
  if not (check_grouped iters) then
    invalid_arg "Table.make: iters not non-decreasing";
  { iters; items }

let of_rows rows =
  let arr = Array.of_list rows in
  let tagged = Array.mapi (fun i (it, x) -> (it, i, x)) arr in
  Array.sort
    (fun (i1, p1, _) (i2, p2, _) ->
      let c = compare i1 i2 in
      if c <> 0 then c else compare p1 p2)
    tagged;
  {
    iters = Array.map (fun (it, _, _) -> it) tagged;
    items = Array.map (fun (_, _, x) -> x) tagged;
  }

let const ~loop items =
  let items = Array.of_list items in
  let k = Array.length items in
  let n = Array.length loop in
  let iters = Array.make (n * k) 0 in
  let out = Array.make (n * k) (Item.Bool false) in
  for i = 0 to n - 1 do
    for j = 0 to k - 1 do
      iters.((i * k) + j) <- loop.(i);
      out.((i * k) + j) <- items.(j)
    done
  done;
  { iters; items = out }

type builder = {
  b_iters : int Vec.t;
  b_items : Item.t Vec.t;
}

let builder () = { b_iters = Vec.create (); b_items = Vec.create () }

let push b iter item =
  Vec.push b.b_iters iter;
  Vec.push b.b_items item

let build b = make (Vec.to_array b.b_iters) (Vec.to_array b.b_items)

let row_count t = Array.length t.iters
let iter_at t i = t.iters.(i)
let item_at t i = t.items.(i)

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

let group_list t c = Array.to_list (Array.sub t.items c.lo (c.hi - c.lo))

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
  Array.to_list t.items

let iters_present t =
  let v = Vec.create () in
  Array.iteri
    (fun i it -> if i = 0 || t.iters.(i - 1) <> it then Vec.push v it)
    t.iters;
  Vec.to_array v

let map_items f t = { t with items = Array.map f t.items }

let filter p t =
  let iters = Vec.create () and items = Vec.create () in
  for i = 0 to row_count t - 1 do
    if p t.items.(i) then begin
      Vec.push iters t.iters.(i);
      Vec.push items t.items.(i)
    end
  done;
  { iters = Vec.to_array iters; items = Vec.to_array items }

(* Per-iteration concatenation is a one-pass merge on iter with t1's
   group emitted before t2's for equal iters. *)
let append2 t1 t2 =
  let n1 = row_count t1 and n2 = row_count t2 in
  let iters = Array.make (n1 + n2) 0 in
  let items = Array.make (n1 + n2) (Item.Bool false) in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let take_from t idx =
    iters.(!k) <- t.iters.(!idx);
    items.(!k) <- t.items.(!idx);
    incr idx;
    incr k
  in
  while !i < n1 || !j < n2 do
    if !j >= n2 then take_from t1 i
    else if !i >= n1 then take_from t2 j
    else if t1.iters.(!i) <= t2.iters.(!j) then take_from t1 i
    else take_from t2 j
  done;
  { iters; items }

let concat ts = List.fold_left append2 empty ts

(* Step results, and loops over them, are usually sorted already: one
   comparison per row confirms it before any sorting is paid for. *)
let in_distinct_doc_order t =
  let n = row_count t in
  let rec ok i =
    i >= n
    || (t.iters.(i - 1) <> t.iters.(i)
        || Item.compare_doc_order t.items.(i - 1) t.items.(i) < 0)
       && ok (i + 1)
  in
  ok 1

let distinct_doc_order t =
  if in_distinct_doc_order t then t
  else begin
  let iters = Vec.create () and items = Vec.create () in
  let n = row_count t in
  let i = ref 0 in
  while !i < n do
    let iter = t.iters.(!i) in
    let j = ref !i in
    while !j < n && t.iters.(!j) = iter do
      incr j
    done;
    let group = Array.sub t.items !i (!j - !i) in
    Array.sort Item.compare_doc_order group;
    Array.iteri
      (fun k item ->
        if k = 0 || not (Item.equal group.(k - 1) item) then begin
          Vec.push iters iter;
          Vec.push items item
        end)
      group;
    i := !j
  done;
  { iters = Vec.to_array iters; items = Vec.to_array items }
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
  { iters = Array.copy loop; items }

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
    var_table = { iters = Array.copy inner_loop; items = Array.copy t.items };
    pos_table = { iters = Array.copy inner_loop; items = pos_items };
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
  { iters = Array.init n Fun.id; items }

(* Two passes along the cursor: size the result, then fill it. *)
let lift t ~outer_of_inner =
  let c = cursor t in
  let total = ref 0 in
  Array.iter
    (fun outer ->
      seek c outer;
      total := !total + (c.hi - c.lo))
    outer_of_inner;
  let iters = Array.make !total 0 in
  let items = Array.make !total (Item.Bool false) in
  let c = cursor t and k = ref 0 in
  Array.iteri
    (fun inner outer ->
      seek c outer;
      for r = c.lo to c.hi - 1 do
        iters.(!k) <- inner;
        items.(!k) <- t.items.(r);
        incr k
      done)
    outer_of_inner;
  { iters; items }

let backmap t ~outer_of_inner =
  (* Inner iters are sorted and outer_of_inner is non-decreasing, so the
     renamed column stays grouped and the inner order realises the
     per-outer-iteration concatenation. *)
  { t with iters = Array.map (fun inner -> outer_of_inner.(inner)) t.iters }

let pp fmt t =
  Format.fprintf fmt "@[<v>iter|item@,";
  for i = 0 to row_count t - 1 do
    Format.fprintf fmt "%4d|%a@," t.iters.(i) Item.pp t.items.(i)
  done;
  Format.fprintf fmt "@]"
