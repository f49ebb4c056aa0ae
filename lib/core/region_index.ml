module Vec = Standoff_util.Vec
module Pool = Standoff_util.Pool
module Region = Standoff_interval.Region
module Area = Standoff_interval.Area
module Metrics = Standoff_obs.Metrics

let m_builds_total =
  Metrics.counter "standoff_index_builds_total"
    ~help:"Region indexes built (full and restricted)"

let m_rows_built_total =
  Metrics.counter "standoff_index_rows_built_total"
    ~help:"Rows written into region indexes"

let m_restricts_total =
  Metrics.counter "standoff_index_restricts_total"
    ~help:"Candidate restrictions applied to a region index"

type t = {
  starts : int64 array;
  ends : int64 array;
  ids : int array;
  region_ranks : int array;
}

type row = {
  row_start : int64;
  row_end : int64;
  row_id : int;
  row_rank : int;
}

(* Total order: [row_rank] breaks the remaining tie, so sorting any
   permutation of the same rows yields the same array — which is what
   lets the chunked parallel sort + merge below match the sequential
   sort byte for byte. *)
let compare_row a b =
  let c = Int64.compare a.row_start b.row_start in
  if c <> 0 then c
  else
    let c = Int64.compare b.row_end a.row_end in
    if c <> 0 then c
    else
      let c = compare a.row_id b.row_id in
      if c <> 0 then c else compare a.row_rank b.row_rank

let of_sorted_rows rows n =
  let starts = Array.make n 0L
  and ends = Array.make n 0L
  and ids = Array.make n 0
  and region_ranks = Array.make n 0 in
  for i = 0 to n - 1 do
    let r = rows.(i) in
    starts.(i) <- r.row_start;
    ends.(i) <- r.row_end;
    ids.(i) <- r.row_id;
    region_ranks.(i) <- r.row_rank
  done;
  { starts; ends; ids; region_ranks }

(* Merge sorted [rows.(lo, mid)] and [rows.(mid, hi)] through [tmp].
   Stable, though stability is moot under a total order. *)
let merge_runs rows tmp lo mid hi =
  Array.blit rows lo tmp lo (hi - lo);
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !i >= mid then begin
      rows.(k) <- tmp.(!j);
      incr j
    end
    else if !j >= hi then begin
      rows.(k) <- tmp.(!i);
      incr i
    end
    else if compare_row tmp.(!j) tmp.(!i) < 0 then begin
      rows.(k) <- tmp.(!j);
      incr j
    end
    else begin
      rows.(k) <- tmp.(!i);
      incr i
    end
  done

(* Below this many rows a parallel sort costs more than it saves. *)
let parallel_sort_threshold = 4096

let build ?pool annots =
  let rows_vec = Vec.create () in
  List.iter
    (fun (id, area) ->
      List.iteri
        (fun rank r ->
          Vec.push rows_vec
            {
              row_start = Region.start_pos r;
              row_end = Region.end_pos r;
              row_id = id;
              row_rank = rank;
            })
        (Area.regions area))
    annots;
  let n = Vec.length rows_vec in
  Metrics.incr m_builds_total;
  Metrics.add m_rows_built_total n;
  if n = 0 then
    { starts = [||]; ends = [||]; ids = [||]; region_ranks = [||] }
  else begin
    let rows = Array.make n (Vec.get rows_vec 0) in
    Vec.iteri (fun i r -> rows.(i) <- r) rows_vec;
    (* Annotations handed over in document order usually nest like the
       tree, so their rows already are in sweep order: one pass decides
       whether the sort can be skipped. *)
    let sorted = ref true and i = ref 1 in
    while !sorted && !i < n do
      if compare_row rows.(!i - 1) rows.(!i) > 0 then sorted := false;
      incr i
    done;
    (match pool with
    | _ when !sorted -> ()
    | Some p when Pool.jobs p > 1 && n >= parallel_sort_threshold ->
        (* Chunked parallel sort, then a log-depth pairwise merge.  The
           total order on rows makes the result identical to a single
           sequential sort. *)
        let min_chunk = parallel_sort_threshold / 4 in
        let chunks = Pool.chunk_count p ~min_chunk ~n () in
        if chunks = 1 then Array.sort compare_row rows
        else begin
          let boundaries =
            Pool.parallel_chunks p ~min_chunk ~n (fun ~chunk:_ ~lo ~hi ->
                let sub = Array.sub rows lo (hi - lo) in
                Array.sort compare_row sub;
                Array.blit sub 0 rows lo (hi - lo);
                (lo, hi))
          in
          let tmp = Array.make n rows.(0) in
          let rec merge_level runs =
            match runs with
            | [] | [ _ ] -> ()
            | _ ->
                let next = ref [] in
                let rec pair = function
                  | (lo1, hi1) :: (lo2, hi2) :: rest ->
                      assert (hi1 = lo2);
                      merge_runs rows tmp lo1 lo2 hi2;
                      next := (lo1, hi2) :: !next;
                      pair rest
                  | [ last ] -> next := last :: !next
                  | [] -> ()
                in
                pair runs;
                merge_level (List.rev !next)
          in
          merge_level (Array.to_list boundaries)
        end
    | _ -> Array.sort compare_row rows);
    of_sorted_rows rows n
  end

let row_count idx = Array.length idx.starts

let max_id idx =
  let m = ref (-1) in
  Array.iter (fun id -> if id > !m then m := id) idx.ids;
  !m

let annotation_ids idx =
  let n = Array.length idx.ids in
  if n = 0 then [||]
  else begin
    (* Ids are clustered on start position, not sorted, but they are
       dense small ints: mark presence in a bitmap sized by the max id
       and read the survivors back out in ascending order — no copy,
       no polymorphic sort. *)
    let m = max_id idx in
    let seen = Bytes.make (m + 1) '\000' in
    let distinct = ref 0 in
    Array.iter
      (fun id ->
        if Bytes.unsafe_get seen id = '\000' then begin
          Bytes.unsafe_set seen id '\001';
          incr distinct
        end)
      idx.ids;
    let out = Array.make !distinct 0 in
    let k = ref 0 in
    for id = 0 to m do
      if Bytes.unsafe_get seen id = '\001' then begin
        out.(!k) <- id;
        incr k
      end
    done;
    out
  end

let restrict ?pool idx ~ids =
  Metrics.incr m_restricts_total;
  let n_rows = Array.length idx.ids in
  let n_ids = Array.length ids in
  if n_rows = 0 || n_ids = 0 then
    { starts = [||]; ends = [||]; ids = [||]; region_ranks = [||] }
  else begin
    (* [idx.ids] is clustered on start position, not on id, so a
       two-pointer merge with the sorted [ids] is impossible; instead
       build a bitmap over the candidate ids once and sweep the rows
       with O(1) membership tests. *)
    let max_cand = ids.(n_ids - 1) in
    let member = Bytes.make (max_cand + 1) '\000' in
    Array.iter (fun id -> Bytes.unsafe_set member id '\001') ids;
    let mem id = id <= max_cand && Bytes.unsafe_get member id = '\001' in
    let count_range lo hi =
      let c = ref 0 in
      for row = lo to hi - 1 do
        if mem (Array.unsafe_get idx.ids row) then incr c
      done;
      !c
    in
    let fill_range dst ~dst_off lo hi =
      let { starts; ends; ids = out_ids; region_ranks } = dst in
      let k = ref dst_off in
      for row = lo to hi - 1 do
        if mem (Array.unsafe_get idx.ids row) then begin
          starts.(!k) <- idx.starts.(row);
          ends.(!k) <- idx.ends.(row);
          out_ids.(!k) <- idx.ids.(row);
          region_ranks.(!k) <- idx.region_ranks.(row);
          incr k
        end
      done
    in
    match pool with
    | Some p when Pool.jobs p > 1 && n_rows >= parallel_sort_threshold ->
        (* Two partitioned sweeps: count survivors per chunk, then fill
           each chunk's contiguous output slice — chunk order keeps the
           start clustering. *)
        let min_chunk = parallel_sort_threshold / 4 in
        let counts =
          Pool.parallel_chunks p ~min_chunk ~n:n_rows
            (fun ~chunk:_ ~lo ~hi -> (lo, hi, count_range lo hi))
        in
        let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 counts in
        let dst =
          {
            starts = Array.make total 0L;
            ends = Array.make total 0L;
            ids = Array.make total 0;
            region_ranks = Array.make total 0;
          }
        in
        let offsets = Array.make (Array.length counts) 0 in
        let acc = ref 0 in
        Array.iteri
          (fun i (_, _, c) ->
            offsets.(i) <- !acc;
            acc := !acc + c)
          counts;
        Pool.run_all p
          (Array.init (Array.length counts) (fun i () ->
               let lo, hi, _ = counts.(i) in
               fill_range dst ~dst_off:offsets.(i) lo hi));
        dst
    | _ ->
        let total = count_range 0 n_rows in
        let dst =
          {
            starts = Array.make total 0L;
            ends = Array.make total 0L;
            ids = Array.make total 0;
            region_ranks = Array.make total 0;
          }
        in
        fill_range dst ~dst_off:0 0 n_rows;
        dst
  end

let region idx row = Region.make idx.starts.(row) idx.ends.(row)

let row_at idx i =
  {
    row_start = idx.starts.(i);
    row_end = idx.ends.(i);
    row_id = idx.ids.(i);
    row_rank = idx.region_ranks.(i);
  }

(* First slot whose row does not sort below [key]. *)
let lower_bound idx key =
  let lo = ref 0 and hi = ref (row_count idx) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_row (row_at idx mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let move_row idx ~id ~rank ~from ~to_ =
  let key r =
    {
      row_start = Region.start_pos r;
      row_end = Region.end_pos r;
      row_id = id;
      row_rank = rank;
    }
  in
  let old_row = key from and row = key to_ in
  let old_slot = lower_bound idx old_row in
  if old_slot >= row_count idx || compare_row (row_at idx old_slot) old_row <> 0
  then invalid_arg "Region_index.move_row: no such row";
  (* The bound counts the old row when it sorts below the new one; the
     row's final slot is then one lower, once it has left. *)
  let slot = lower_bound idx row in
  let slot = if slot > old_slot then slot - 1 else slot in
  let shift a =
    if slot > old_slot then
      Array.blit a (old_slot + 1) a old_slot (slot - old_slot)
    else Array.blit a slot a (slot + 1) (old_slot - slot)
  in
  shift idx.starts;
  shift idx.ends;
  shift idx.ids;
  shift idx.region_ranks;
  idx.starts.(slot) <- row.row_start;
  idx.ends.(slot) <- row.row_end;
  idx.ids.(slot) <- id;
  idx.region_ranks.(slot) <- rank

let pp fmt idx =
  Format.fprintf fmt "@[<v>start|end|id|rank@,";
  for i = 0 to row_count idx - 1 do
    Format.fprintf fmt "%Ld|%Ld|%d|%d@," idx.starts.(i) idx.ends.(i)
      idx.ids.(i) idx.region_ranks.(i)
  done;
  Format.fprintf fmt "@]"
