module A1 = Bigarray.Array1

type kind =
  | Sorted_list
  | Lazy_heap

let kind_of_string = function
  | "list" -> Sorted_list
  | "heap" -> Lazy_heap
  | s -> invalid_arg (Printf.sprintf "Active_set.kind_of_string: %S" s)

let kind_to_string = function Sorted_list -> "list" | Lazy_heap -> "heap"

type callbacks = {
  on_add : iter:int -> ctx:int -> unit;
  on_skip : iter:int -> ctx:int -> unit;
  on_replace : iter:int -> removed:int -> by:int -> unit;
  on_trim : iter:int -> ctx:int -> unit;
}

(* Positions are read straight out of the caller's columns ([ends i],
   [starts j]) rather than passed as [int64] arguments: across a call
   an [int64] is boxed, and these run once per sweep row. *)
type positions = Region_index.positions

(* ------------------------------------------------------------------ *)
(* Flat entry columns: a position column and two int columns, grown by
   doubling.  The sorted list keeps them sorted on [ends] descending;
   the heaps keep heap order.                                         *)

type entries = {
  mutable ends : positions;
  mutable iters : int array;
  mutable ctxs : int array;
  mutable len : int;
}

let entries_make () =
  {
    ends = Region_index.positions 16;
    iters = Array.make 16 0;
    ctxs = Array.make 16 0;
    len = 0;
  }

let reserve en =
  let cap = Array.length en.iters in
  if en.len >= cap then begin
    let ends = Region_index.positions (2 * cap) in
    A1.blit en.ends (A1.sub ends 0 cap);
    en.ends <- ends;
    en.iters <- Array.append en.iters en.iters;
    en.ctxs <- Array.append en.ctxs en.ctxs
  end

let set_entry en k (src : positions) i ~iter ~ctx =
  A1.unsafe_set en.ends k (A1.unsafe_get src i);
  en.iters.(k) <- iter;
  en.ctxs.(k) <- ctx

let move_entry en ~src ~dst =
  set_entry en dst en.ends src ~iter:en.iters.(src) ~ctx:en.ctxs.(src)

let swap_entries en a b =
  let e = A1.unsafe_get en.ends a and it = en.iters.(a) and cx = en.ctxs.(a) in
  move_entry en ~src:b ~dst:a;
  A1.unsafe_set en.ends b e;
  en.iters.(b) <- it;
  en.ctxs.(b) <- cx

(* ------------------------------------------------------------------ *)
(* Sorted list (the paper's structure)                                *)

(* First position whose end is strictly below [ends.{i}]. *)
let list_position_below en (ends : positions) i =
  let e = A1.unsafe_get ends i in
  let lo = ref 0 and hi = ref en.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if A1.unsafe_get en.ends mid >= e then lo := mid + 1 else hi := mid
  done;
  !lo

let list_insert en ~iter ~ctx (ends : positions) i =
  reserve en;
  let pos = list_position_below en ends i in
  for k = en.len downto pos + 1 do
    move_entry en ~src:(k - 1) ~dst:k
  done;
  set_entry en pos ends i ~iter ~ctx;
  en.len <- en.len + 1

let list_remove en pos =
  for k = pos to en.len - 2 do
    move_entry en ~src:(k + 1) ~dst:k
  done;
  en.len <- en.len - 1

(* The slot holding iteration [iter]'s region, whose end is [ends.{i}]. *)
let list_find en ~iter (ends : positions) i =
  let e = A1.unsafe_get ends i in
  let lo = ref 0 and hi = ref en.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if A1.unsafe_get en.ends mid > e then lo := mid + 1 else hi := mid
  done;
  let pos = ref !lo in
  while en.iters.(!pos) <> iter do
    incr pos
  done;
  !pos

(* ------------------------------------------------------------------ *)
(* Lazy two-heap implementation                                       *)

(* Entries are pushed on both a max-heap (for the emit scan) and a
   min-heap (for trimming); the per-iteration columns of [t] are the
   source of truth and an entry is live iff it matches its iteration's
   row.  Stale entries are skipped on contact and both heaps are
   rebuilt when they outnumber the live ones.  [dir] is 1 for the
   max-heap, -1 for the min-heap. *)
let before ~dir en a b =
  let ea = A1.unsafe_get en.ends a and eb = A1.unsafe_get en.ends b in
  if dir > 0 then ea > eb else ea < eb

let heap_push en ~dir (ends : positions) i ~iter ~ctx =
  reserve en;
  let k = ref en.len in
  set_entry en !k ends i ~iter ~ctx;
  en.len <- en.len + 1;
  while !k > 0 && before ~dir en !k ((!k - 1) / 2) do
    let p = (!k - 1) / 2 in
    swap_entries en !k p;
    k := p
  done

let sift_down en ~dir k =
  let i = ref k and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let best = ref !i in
    if l < en.len && before ~dir en l !best then best := l;
    if r < en.len && before ~dir en r !best then best := r;
    if !best = !i then continue := false
    else begin
      swap_entries en !i !best;
      i := !best
    end
  done

let heap_pop_root en ~dir =
  en.len <- en.len - 1;
  move_entry en ~src:en.len ~dst:0;
  sift_down en ~dir 0

(* ------------------------------------------------------------------ *)
(* The public type                                                    *)

type impl =
  | List of entries
  | Heap of { hmax : entries; hmin : entries }

(* Single-region mode pins at most one live region per iteration:
   [live_ctx.(iter - iter_lo)] is its context id ([-1] when none) and
   [live_end.{iter - iter_lo}] its end — flat columns indexed by
   iteration, no hashing and no boxed tuples. *)
type t = {
  impl : impl;
  single_region : bool;
  cb : callbacks option;
  iter_lo : int;
  live_end : positions;
  live_ctx : int array;
  mutable live : int;
}

let create kind ~single_region ?callbacks ~iters:(iter_lo, iter_hi) () =
  let impl =
    match kind with
    | Sorted_list -> List (entries_make ())
    | Lazy_heap ->
        if not single_region then
          invalid_arg
            "Active_set.create: Lazy_heap requires single-region mode";
        Heap { hmax = entries_make (); hmin = entries_make () }
  in
  let span = if single_region then max 0 (iter_hi - iter_lo + 1) else 0 in
  {
    impl;
    single_region;
    cb = callbacks;
    iter_lo;
    live_end = Region_index.positions span;
    live_ctx = Array.make span (-1);
    live = 0;
  }

let size t = match t.impl with List en -> en.len | Heap _ -> t.live

let entry_live t en k =
  let s = en.iters.(k) - t.iter_lo in
  t.live_ctx.(s) = en.ctxs.(k)
  && A1.unsafe_get t.live_end s = A1.unsafe_get en.ends k

(* Keep the live entries of the max-heap (one per live iteration),
   copy them to the min-heap and restore both heap orders bottom-up:
   O(heap) per compaction, which runs once the heap has doubled. *)
let heap_compact t ~hmax ~hmin =
  let n = ref 0 in
  for k = 0 to hmax.len - 1 do
    if entry_live t hmax k then begin
      move_entry hmax ~src:k ~dst:!n;
      incr n
    end
  done;
  hmax.len <- !n;
  hmin.len <- 0;
  for k = 0 to !n - 1 do
    reserve hmin;
    set_entry hmin k hmax.ends k ~iter:hmax.iters.(k) ~ctx:hmax.ctxs.(k);
    hmin.len <- k + 1
  done;
  for k = (!n / 2) - 1 downto 0 do
    sift_down hmax ~dir:1 k;
    sift_down hmin ~dir:(-1) k
  done

let insert t ~iter ~ctx (ends : positions) i =
  (match t.impl with
  | List en -> list_insert en ~iter ~ctx ends i
  | Heap { hmax; hmin } ->
      if hmax.len > (2 * t.live) + 8 then heap_compact t ~hmax ~hmin;
      heap_push hmax ~dir:1 ends i ~iter ~ctx;
      heap_push hmin ~dir:(-1) ends i ~iter ~ctx);
  match t.cb with Some cb -> cb.on_add ~iter ~ctx | None -> ()

let add t ~iter ~ctx (ends : positions) i =
  if not t.single_region then insert t ~iter ~ctx ends i
  else begin
    let s = iter - t.iter_lo in
    let old_ctx = t.live_ctx.(s) in
    if old_ctx >= 0 && A1.unsafe_get t.live_end s >= A1.unsafe_get ends i then (
      match t.cb with Some cb -> cb.on_skip ~iter ~ctx | None -> ())
    else begin
      if old_ctx >= 0 then begin
        (match t.impl with
        | List en -> list_remove en (list_find en ~iter t.live_end s)
        | Heap _ -> () (* the old entry goes stale *));
        match t.cb with
        | Some cb -> cb.on_replace ~iter ~removed:old_ctx ~by:ctx
        | None -> ()
      end
      else t.live <- t.live + 1;
      A1.unsafe_set t.live_end s (A1.unsafe_get ends i);
      t.live_ctx.(s) <- ctx;
      insert t ~iter ~ctx ends i
    end
  end

let retire t ~iter ~ctx =
  if t.single_region then begin
    t.live_ctx.(iter - t.iter_lo) <- -1;
    t.live <- t.live - 1
  end;
  match t.cb with Some cb -> cb.on_trim ~iter ~ctx | None -> ()

let trim t (starts : positions) j =
  let start = A1.unsafe_get starts j in
  match t.impl with
  | List en ->
      while en.len > 0 && A1.unsafe_get en.ends (en.len - 1) < start do
        let last = en.len - 1 in
        en.len <- last;
        retire t ~iter:en.iters.(last) ~ctx:en.ctxs.(last)
      done
  | Heap { hmin; _ } ->
      while hmin.len > 0 && A1.unsafe_get hmin.ends 0 < start do
        if entry_live t hmin 0 then
          retire t ~iter:hmin.iters.(0) ~ctx:hmin.ctxs.(0);
        heap_pop_root hmin ~dir:(-1)
      done

(* Pruned DFS over the max-heap: a node's end bounds its whole subtree,
   stale or not. *)
let rec heap_emit_end_ge t en k (ends : positions) j out ~cand ~rank =
  if k < en.len && A1.unsafe_get en.ends k >= A1.unsafe_get ends j then begin
    if entry_live t en k then
      Matches.push out ~iter:en.iters.(k) ~ctx:en.ctxs.(k) ~cand ~rank;
    heap_emit_end_ge t en ((2 * k) + 1) ends j out ~cand ~rank;
    heap_emit_end_ge t en ((2 * k) + 2) ends j out ~cand ~rank
  end

let emit_end_ge t (ends : positions) j out ~cand ~rank =
  match t.impl with
  | List en ->
      let threshold = A1.unsafe_get ends j in
      let k = ref 0 in
      while !k < en.len && A1.unsafe_get en.ends !k >= threshold do
        Matches.push out ~iter:en.iters.(!k) ~ctx:en.ctxs.(!k) ~cand ~rank;
        incr k
      done
  | Heap { hmax; _ } -> heap_emit_end_ge t hmax 0 ends j out ~cand ~rank

let emit_all t out ~cand ~rank =
  match t.impl with
  | List en ->
      for k = 0 to en.len - 1 do
        Matches.push out ~iter:en.iters.(k) ~ctx:en.ctxs.(k) ~cand ~rank
      done
  | Heap { hmax; _ } ->
      for k = 0 to hmax.len - 1 do
        if entry_live t hmax k then
          Matches.push out ~iter:hmax.iters.(k) ~ctx:hmax.ctxs.(k) ~cand ~rank
      done

let covered t ~iter (ends : positions) i =
  t.single_region
  &&
  let s = iter - t.iter_lo in
  t.live_ctx.(s) >= 0 && A1.unsafe_get t.live_end s >= A1.unsafe_get ends i
