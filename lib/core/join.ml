module Vec = Standoff_util.Vec
module Timing = Standoff_util.Timing
module Search = Standoff_util.Search
module Pool = Standoff_util.Pool
module Radix = Standoff_util.Radix
module Area = Standoff_interval.Area

(* ------------------------------------------------------------------ *)
(* Post-processing: match rows -> unique (iter, node-id) in document
   order (paper §4.4: "some post-processing occurs that maps these
   into node-ids (unique and in document order per iter)").          *)

(* Pairs are packed into single integers (iter in the high bits, node
   id in the low 31) so sorting is a radix sort of plain ints; node
   ids are pre ranks and iteration numbers are row counts, so both fit
   comfortably. *)
let pack iter pre = (iter lsl 31) lor pre
let unpack_iter key = key asr 31
let unpack_pre key = key land 0x7FFFFFFF

(* [keys] is consumed (sorted in place). *)
let sort_dedup_pairs keys =
  Radix.sort_ints keys;
  let distinct = ref 0 in
  Array.iteri
    (fun i key -> if i = 0 || keys.(i - 1) <> key then incr distinct)
    keys;
  let iters = Array.make !distinct 0 and pres = Array.make !distinct 0 in
  let k = ref 0 in
  Array.iteri
    (fun i key ->
      if i = 0 || keys.(i - 1) <> key then begin
        iters.(!k) <- unpack_iter key;
        pres.(!k) <- unpack_pre key;
        incr k
      end)
    keys;
  (iters, pres)

let region_count annots pre =
  match Annots.area_of annots pre with
  | Some area -> Area.region_count area
  | None -> 0

(* Containment between areas requires every candidate region inside
   the same context annotation: count the distinct matched regions per
   (iter, context, candidate) group and keep full covers (§3.1). *)
let finalize_narrow_multi annots (m : Matches.t) =
  let arr =
    Array.init m.len (fun k -> (m.iters.(k), m.ctxs.(k), m.cands.(k), m.ranks.(k)))
  in
  Array.sort compare arr;
  let pairs = Vec.create () in
  let n = Array.length arr in
  let i = ref 0 in
  while !i < n do
    let iter, ctx, cand, _ = arr.(!i) in
    let covered = ref 0 in
    let j = ref !i in
    let prev_rank = ref (-1) in
    while
      !j < n
      && (fun (it, cx, cd, _) -> it = iter && cx = ctx && cd = cand) arr.(!j)
    do
      let _, _, _, rank = arr.(!j) in
      if rank <> !prev_rank then begin
        incr covered;
        prev_rank := rank
      end;
      incr j
    done;
    if !covered = region_count annots cand then Vec.push pairs (pack iter cand);
    i := !j
  done;
  sort_dedup_pairs (Vec.to_array pairs)

(* Nested annotations cluster the index like the tree, so matches
   often emerge sorted by (iter, candidate) and duplicate-free: one
   pass over the match columns detects that, and they are the result
   as they are, trimmed.  Only unsorted matches are packed and sorted. *)
let finalize_select op annots ~single_region (m : Matches.t) =
  let strictly_sorted () =
    let rec ok k =
      k >= m.len
      || (let i0 = m.iters.(k - 1) and i1 = m.iters.(k) in
          i0 < i1 || (i0 = i1 && m.cands.(k - 1) < m.cands.(k)))
         && ok (k + 1)
    in
    ok 1
  in
  if (not single_region) && Op.is_narrow op then finalize_narrow_multi annots m
  else if strictly_sorted () then
    (Array.sub m.iters 0 m.len, Array.sub m.cands 0 m.len)
  else sort_dedup_pairs (Array.init m.len (fun k -> pack m.iters.(k) m.cands.(k)))

(* The anti-joins return, per live iteration, the candidates that the
   corresponding semi-join did not match.  The loop relation supplies
   iterations with an empty context, which reject all of nothing and
   therefore return every candidate. *)
let complement ~loop ~candidate_ids (matched_iters, matched_pres) =
  let iters = Vec.create () and pres = Vec.create () in
  let n = Array.length matched_iters in
  let row = ref 0 in
  Array.iter
    (fun iter ->
      while !row < n && matched_iters.(!row) < iter do
        incr row
      done;
      let m = ref !row in
      Array.iter
        (fun cand ->
          while
            !m < n && matched_iters.(!m) = iter && matched_pres.(!m) < cand
          do
            incr m
          done;
          let is_matched =
            !m < n && matched_iters.(!m) = iter && matched_pres.(!m) = cand
          in
          if not is_matched then begin
            Vec.push iters iter;
            Vec.push pres cand
          end)
        candidate_ids)
    loop;
  (Vec.to_array iters, Vec.to_array pres)

(* ------------------------------------------------------------------ *)
(* Merge-join execution for one already-built context.                *)

let merge_join_lifted op annots ~active_set ~deadline ~loop ~candidate_ids ctx
    cand_index =
  let single_region = annots.Annots.max_regions_per_area = 1 in
  let sweep =
    match Op.select_of op with
    | Op.Select_narrow -> Merge_join_ll.select_narrow
    | Op.Select_wide | Op.Reject_narrow | Op.Reject_wide ->
        Merge_join_ll.select_wide
  in
  let matches = sweep ~active_set ~deadline ~single_region ctx cand_index in
  let selected =
    finalize_select (Op.select_of op) annots ~single_region matches
  in
  if Op.is_select op then selected
  else complement ~loop ~candidate_ids selected

(* ------------------------------------------------------------------ *)
(* Sorted-array intersection, for the post-join name-test filtering
   of the Figure 2 baseline.                                          *)

let intersect_sorted a b =
  let out = Vec.create () in
  Array.iter (fun x -> if Search.mem_sorted_int b x then Vec.push out x) a;
  Vec.to_array out

(* ------------------------------------------------------------------ *)
(* Instrumentation and per-call strategy resolution.                  *)

module Metrics = Standoff_obs.Metrics

(* Per-strategy join counters, registered at module init so exposition
   lists every strategy from the start (at zero). *)
let m_joins_by_strategy =
  List.map
    (fun s ->
      ( s,
        Metrics.counter "standoff_joins_total"
          ~labels:[ ("strategy", Config.strategy_to_string s) ]
          ~help:"StandOff join invocations, by resolved strategy" ))
    Config.all_strategies

let m_join_of_strategy s = List.assoc s m_joins_by_strategy

let m_index_rows_total =
  Metrics.counter "standoff_join_index_rows_total"
    ~help:"Region-index rows handed to join sweeps"

let m_sweep_chunks_total =
  Metrics.counter "standoff_join_sweep_chunks_total"
    ~help:"Parallel merge-sweep chunks joins fanned out"

type stats = {
  mutable s_invocations : int;
  mutable s_index_rows : int;
  mutable s_chunks : int;
}

let fresh_stats () = { s_invocations = 0; s_index_rows = 0; s_chunks = 0 }

(* [chunks] counts parallel sweep chunks only: the per-iteration and
   UDF paths contribute 0, a sequential loop-lifted sweep 1, so the
   counter is > 1 exactly when a join actually fanned out.  The
   process-wide metrics bump on every call; [stats] feeds per-query
   tracing and is only threaded when a trace is attached. *)
let record ?(chunks = 0) stats ~strategy ~index_rows =
  Metrics.incr (m_join_of_strategy strategy);
  Metrics.add m_index_rows_total index_rows;
  Metrics.add m_sweep_chunks_total chunks;
  match stats with
  | None -> ()
  | Some s ->
      s.s_invocations <- s.s_invocations + 1;
      s.s_index_rows <- s.s_index_rows + index_rows;
      s.s_chunks <- s.s_chunks + chunks

(* The strategies are result-equivalent, so picking one per operator
   is purely a cost decision: for tiny context x candidate products
   the quadratic UDF beats building a merge-join context (Figure 6's
   left edge); everything else wants the loop-lifted sweep. *)
let auto_strategy annots ~context_rows ~candidate_rows =
  let cands =
    match candidate_rows with
    | Some n -> n
    | None -> Annots.annotation_count annots
  in
  if context_rows * cands <= 512 then Config.Udf_candidates
  else Config.Loop_lifted

let run_sequence op strategy annots ?(active_set = Active_set.Sorted_list)
    ?(deadline = Timing.no_deadline) ?stats ~context ~candidates () =
  match strategy with
  | Config.Udf_no_candidates ->
      (* Figure 2: join against everything, then apply the node test to
         the join result. *)
      let joined = Udf_join.join op annots ~deadline ~context ~candidates:None in
      record stats ~strategy ~index_rows:0;
      (match candidates with
      | None -> joined
      | Some ids -> intersect_sorted joined ids)
  | Config.Udf_candidates ->
      record stats ~strategy ~index_rows:0;
      Udf_join.join op annots ~deadline ~context ~candidates
  | Config.Basic_merge | Config.Loop_lifted ->
      let ctx =
        Merge_join_ll.context_of_annotations annots
          ~iters:(Array.map (fun _ -> 0) context)
          ~pres:context
      in
      (* A per-sequence invocation recomputes the candidate sequence by
         scanning the region index, as the paper's engine does; only
         the loop-lifted entry point amortises this across iterations
         (§4.6). *)
      let cand_index = Annots.candidate_index_scan annots ~candidates in
      record stats ~strategy ~index_rows:(Region_index.row_count cand_index);
      let candidate_ids =
        match candidates with
        | _ when Op.is_select op -> [||]
        | None -> annots.Annots.ids
        | Some ids -> Annots.restrict_ids annots ~candidates:ids
      in
      let _, pres =
        merge_join_lifted op annots ~active_set ~deadline ~loop:[| 0 |]
          ~candidate_ids ctx cand_index
      in
      pres

type candidates =
  | All
  | Named of string
  | Pres of int array

let run_lifted op strategy annots ?pool ?(active_set = Active_set.Sorted_list)
    ?(deadline = Timing.no_deadline) ?stats ~loop ~context_iters ~context_pres
    ~candidates () =
  match strategy with
  | Config.Loop_lifted -> (
      (* The candidate index and, for the anti-joins, the candidate
         annotation ids they complement against. *)
      let cand_index, candidate_ids =
        let need_ids = not (Op.is_select op) in
        match candidates with
        | Pres ids ->
            ( Annots.candidate_index_scan annots ~candidates:(Some ids),
              if need_ids then Annots.restrict_ids annots ~candidates:ids
              else [||] )
        | All | Named _ ->
            let name = match candidates with Named n -> Some n | _ -> None in
            ( Annots.candidate_index annots ~name,
              if need_ids then Annots.candidate_ids annots ~name else [||] )
      in
      let n_loop = Array.length loop in
      let chunks =
        match pool with
        | Some p when Pool.jobs p > 1 && n_loop > 1 ->
            Pool.chunk_count p ~n:n_loop ()
        | _ -> 1
      in
      record stats ~chunks ~strategy ~index_rows:(Region_index.row_count cand_index);
      if chunks = 1 then
        let ctx =
          Merge_join_ll.context_of_annotations annots ~iters:context_iters
            ~pres:context_pres
        in
        merge_join_lifted op annots ~active_set ~deadline ~loop ~candidate_ids
          ctx cand_index
      else begin
        (* Iterations are independent by construction (§4 Listing 1),
           so the loop relation is split on iteration boundaries and
           one sweep runs per chunk against the shared immutable
           candidate index.  Each chunk's output is per-iteration
           duplicate-free and sorted by (iter, pre); chunks cover
           ascending disjoint iteration ranges, so concatenating them
           in chunk order reproduces the sequential output exactly. *)
        let pool = Option.get pool in
        let pieces =
          Pool.parallel_chunks pool ~n:n_loop (fun ~chunk:_ ~lo ~hi ->
              let loop_slice = Array.sub loop lo (hi - lo) in
              (* Context rows are sorted by iter: the rows of this
                 chunk's iterations form a contiguous slice. *)
              let clo = Search.lower_bound_int context_iters loop_slice.(0) in
              let chi =
                Search.lower_bound_int context_iters
                  (loop_slice.(Array.length loop_slice - 1) + 1)
              in
              let ctx =
                Merge_join_ll.context_of_annotations annots
                  ~iters:(Array.sub context_iters clo (chi - clo))
                  ~pres:(Array.sub context_pres clo (chi - clo))
              in
              merge_join_lifted op annots ~active_set ~deadline
                ~loop:loop_slice ~candidate_ids ctx cand_index)
        in
        let total =
          Array.fold_left
            (fun acc (it, _) -> acc + Array.length it)
            0 pieces
        in
        let iters = Array.make total 0 and pres = Array.make total 0 in
        let off = ref 0 in
        Array.iter
          (fun (it, pr) ->
            Array.blit it 0 iters !off (Array.length it);
            Array.blit pr 0 pres !off (Array.length pr);
            off := !off + Array.length it)
          pieces;
        (iters, pres)
      end)
  | Config.Udf_no_candidates | Config.Udf_candidates | Config.Basic_merge ->
      (* The paper's pre-loop-lifting behaviour: the single-sequence
         algorithm runs once per iteration, re-scanning the candidate
         index (or, for the UDFs, re-running the nested loop) each
         time. *)
      let candidates =
        match candidates with
        | All -> None
        | Named n -> Some (Standoff_store.Doc.elements_named annots.Annots.doc n)
        | Pres ids -> Some ids
      in
      let iters = Vec.create () and pres = Vec.create () in
      let n = Array.length context_iters in
      let row = ref 0 in
      Array.iter
        (fun iter ->
          Timing.checkpoint deadline;
          while !row < n && context_iters.(!row) < iter do
            incr row
          done;
          let lo = !row in
          while !row < n && context_iters.(!row) = iter do
            incr row
          done;
          let context = Array.sub context_pres lo (!row - lo) in
          let result =
            run_sequence op strategy annots ~deadline ?stats ~context
              ~candidates ()
          in
          Array.iter
            (fun pre ->
              Vec.push iters iter;
              Vec.push pres pre)
            result)
        loop;
      (Vec.to_array iters, Vec.to_array pres)
