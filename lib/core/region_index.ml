module Radix = Standoff_util.Radix
module Region = Standoff_interval.Region
module Area = Standoff_interval.Area
module Metrics = Standoff_obs.Metrics
module A1 = Bigarray.Array1

let m_builds_total =
  Metrics.counter "standoff_index_builds_total"
    ~help:"Region indexes built (full and per-name)"

let m_rows_built_total =
  Metrics.counter "standoff_index_rows_built_total"
    ~help:"Rows written into region indexes"

let m_restricts_total =
  Metrics.counter "standoff_index_restricts_total"
    ~help:"Candidate restrictions applied to a region index"

type positions = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

let positions n : positions = A1.create Bigarray.int64 Bigarray.c_layout n

let positions_to_list (a : positions) = List.init (A1.dim a) (A1.get a)

type t = {
  starts : positions;
  ends : positions;
  ids : int array;
  region_ranks : int array;
}

let make n =
  {
    starts = positions n;
    ends = positions n;
    ids = Array.make n 0;
    region_ranks = Array.make n 0;
  }

let row_count idx = Array.length idx.ids

(* Total order on [(start asc, end desc, id asc, rank asc)]: [rank]
   breaks the remaining tie, so sorting any permutation of the same
   rows yields the same columns. *)
let compare_key idx row ~start ~end_ ~id ~rank =
  let s = A1.unsafe_get idx.starts row in
  if s < start then -1
  else if s > start then 1
  else
    let e = A1.unsafe_get idx.ends row in
    if e > end_ then -1
    else if e < end_ then 1
    else
      let c = compare (idx.ids.(row) : int) id in
      if c <> 0 then c else compare (idx.region_ranks.(row) : int) rank

let compare_rows idx i j =
  compare_key idx i ~start:(A1.unsafe_get idx.starts j)
    ~end_:(A1.unsafe_get idx.ends j) ~id:idx.ids.(j) ~rank:idx.region_ranks.(j)

let of_columns ~starts ~ends ~ids ~ranks =
  let idx = { starts; ends; ids; region_ranks = ranks } in
  let n = row_count idx in
  Metrics.incr m_builds_total;
  Metrics.add m_rows_built_total n;
  (* Annotations handed over in document order often nest like the
     tree, so their rows already are in sweep order: one pass decides
     whether the sort can be skipped. *)
  let sorted = ref true and i = ref 1 in
  while !sorted && !i < n do
    if compare_rows idx (!i - 1) !i > 0 then sorted := false;
    incr i
  done;
  if !sorted then idx
  else begin
    (* Stable radix sorts of the row order, least significant key
       first; the order is total, so the result is unique. *)
    let perm = Array.init n Fun.id in
    Radix.sort_by_ints ranks perm;
    Radix.sort_by_ints ids perm;
    Radix.sort_by_int64s ends ~descending:true perm;
    Radix.sort_by_int64s starts ~descending:false perm;
    let out = make n in
    Array.iteri
      (fun k row ->
        A1.unsafe_set out.starts k (A1.unsafe_get starts row);
        A1.unsafe_set out.ends k (A1.unsafe_get ends row);
        out.ids.(k) <- ids.(row);
        out.region_ranks.(k) <- ranks.(row))
      perm;
    out
  end

let build annots =
  let n =
    List.fold_left (fun acc (_, area) -> acc + Area.region_count area) 0 annots
  in
  let idx = make n in
  let k = ref 0 in
  List.iter
    (fun (id, area) ->
      List.iteri
        (fun rank r ->
          A1.unsafe_set idx.starts !k (Region.start_pos r);
          A1.unsafe_set idx.ends !k (Region.end_pos r);
          idx.ids.(!k) <- id;
          idx.region_ranks.(!k) <- rank;
          incr k)
        (Area.regions area))
    annots;
  of_columns ~starts:idx.starts ~ends:idx.ends ~ids:idx.ids
    ~ranks:idx.region_ranks

let restrict idx ~ids =
  Metrics.incr m_restricts_total;
  let n_rows = Array.length idx.ids in
  let n_ids = Array.length ids in
  if n_rows = 0 || n_ids = 0 then make 0
  else begin
    (* [idx.ids] is clustered on start position, not on id, so a
       two-pointer merge with the sorted [ids] is impossible; instead
       build a bitmap over the candidate ids once and sweep the rows
       twice with O(1) membership tests: count, then fill. *)
    let max_cand = ids.(n_ids - 1) in
    let member = Bytes.make (max_cand + 1) '\000' in
    Array.iter (fun id -> Bytes.unsafe_set member id '\001') ids;
    let mem id = id <= max_cand && Bytes.unsafe_get member id = '\001' in
    let count = ref 0 in
    for row = 0 to n_rows - 1 do
      if mem (Array.unsafe_get idx.ids row) then incr count
    done;
    let dst = make !count in
    let k = ref 0 in
    for row = 0 to n_rows - 1 do
      if mem (Array.unsafe_get idx.ids row) then begin
        A1.unsafe_set dst.starts !k (A1.unsafe_get idx.starts row);
        A1.unsafe_set dst.ends !k (A1.unsafe_get idx.ends row);
        dst.ids.(!k) <- idx.ids.(row);
        dst.region_ranks.(!k) <- idx.region_ranks.(row);
        incr k
      end
    done;
    dst
  end

(* First slot whose row does not sort below the key. *)
let lower_bound idx ~start ~end_ ~id ~rank =
  let lo = ref 0 and hi = ref (row_count idx) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key idx mid ~start ~end_ ~id ~rank < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let move_row idx ~id ~rank ~from ~to_ =
  let slot_of r =
    lower_bound idx ~start:(Region.start_pos r) ~end_:(Region.end_pos r) ~id
      ~rank
  in
  let old_slot = slot_of from in
  if
    old_slot >= row_count idx
    || compare_key idx old_slot ~start:(Region.start_pos from)
         ~end_:(Region.end_pos from) ~id ~rank
       <> 0
  then invalid_arg "Region_index.move_row: no such row";
  (* The bound counts the old row when it sorts below the new one; the
     row's final slot is then one lower, once it has left. *)
  let slot = slot_of to_ in
  let slot = if slot > old_slot then slot - 1 else slot in
  let src, dst, len =
    if slot > old_slot then (old_slot + 1, old_slot, slot - old_slot)
    else (slot, slot + 1, old_slot - slot)
  in
  let shift_positions a = A1.blit (A1.sub a src len) (A1.sub a dst len) in
  shift_positions idx.starts;
  shift_positions idx.ends;
  Array.blit idx.ids src idx.ids dst len;
  Array.blit idx.region_ranks src idx.region_ranks dst len;
  idx.starts.{slot} <- Region.start_pos to_;
  idx.ends.{slot} <- Region.end_pos to_;
  idx.ids.(slot) <- id;
  idx.region_ranks.(slot) <- rank

let pp fmt idx =
  Format.fprintf fmt "@[<v>start|end|id|rank@,";
  for i = 0 to row_count idx - 1 do
    Format.fprintf fmt "%Ld|%Ld|%d|%d@," idx.starts.{i} idx.ends.{i}
      idx.ids.(i) idx.region_ranks.(i)
  done;
  Format.fprintf fmt "@]"
