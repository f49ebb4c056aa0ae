module Vec = Standoff_util.Vec
module Timing = Standoff_util.Timing
module Area = Standoff_interval.Area
module Region = Standoff_interval.Region
module Metrics = Standoff_obs.Metrics

(* Per-sweep totals, bumped once per sweep (never per row). *)
let m_sweeps_narrow =
  Metrics.counter "standoff_merge_sweeps_total"
    ~labels:[ ("kind", "narrow") ]
    ~help:"Merge-join sweeps executed"

let m_sweeps_wide =
  Metrics.counter "standoff_merge_sweeps_total"
    ~labels:[ ("kind", "wide") ]
    ~help:"Merge-join sweeps executed"

let m_sweep_matches =
  Metrics.counter "standoff_merge_match_rows_total"
    ~help:"Match rows emitted by merge-join sweeps"

type context = {
  iters : int array;
  ids : int array;
  starts : int64 array;
  ends : int64 array;
}

let context_of_annotations annots ~iters ~pres =
  let rows = Vec.create () in
  Array.iteri
    (fun i pre ->
      match Annots.area_of annots pre with
      | None -> ()
      | Some area ->
          List.iter
            (fun r ->
              Vec.push rows
                (Region.start_pos r, Region.end_pos r, iters.(i), pre))
            (Area.regions area))
    pres;
  let in_order (s1, e1, _, _) (s2, e2, _, _) =
    let c = Int64.compare s1 s2 in
    if c <> 0 then c < 0 else Int64.compare e2 e1 <= 0
  in
  (* Context nodes arrive in document order; when annotation regions
     nest like the tree (the common case) that already is the sweep
     order, so check before sorting. *)
  let sorted = ref true in
  for i = 1 to Vec.length rows - 1 do
    if not (in_order (Vec.get rows (i - 1)) (Vec.get rows i)) then
      sorted := false
  done;
  if not !sorted then
    Vec.sort
      (fun (s1, e1, _, _) (s2, e2, _, _) ->
        let c = Int64.compare s1 s2 in
        if c <> 0 then c else Int64.compare e2 e1)
      rows;
  let n = Vec.length rows in
  let iters = Array.make n 0
  and ids = Array.make n 0
  and starts = Array.make n 0L
  and ends = Array.make n 0L in
  Vec.iteri
    (fun i (s, e, iter, id) ->
      starts.(i) <- s;
      ends.(i) <- e;
      iters.(i) <- iter;
      ids.(i) <- id)
    rows;
  { iters; ids; starts; ends }

let context_row_count c = Array.length c.ids

type match_row = {
  m_iter : int;
  m_ctx : int;
  m_cand : int;
  m_rank : int;
}

type trace_event =
  | Add_active of { iter : int; ctx : int }
  | Skip_covered of { iter : int; ctx : int }
  | Replace_active of { iter : int; removed : int; by : int }
  | Trim_active of { iter : int; ctx : int }
  | Emit of { iter : int; ctx : int; cand : int }
  | Skip_candidates of { from_row : int; to_row : int }

(* The active context set lives in [Active_set]; the paper's sorted
   list is the default, the lazy heap (§5's suggested improvement) is
   selectable per sweep. *)

let no_trace (_ : trace_event) = ()

let make_active kind ~single_region ~trace =
  Active_set.create kind ~single_region
    ~callbacks:
      {
        Active_set.on_add = (fun ~iter ~ctx -> trace (Add_active { iter; ctx }));
        on_skip = (fun ~iter ~ctx -> trace (Skip_covered { iter; ctx }));
        on_replace =
          (fun ~iter ~removed ~by -> trace (Replace_active { iter; removed; by }));
        on_trim = (fun ~iter ~ctx -> trace (Trim_active { iter; ctx }));
      }

let select_narrow ?(active_set = Active_set.Sorted_list) ?(trace = no_trace)
    ?(deadline = Timing.no_deadline) ~single_region (ctx : context)
    (cands : Region_index.t) =
  let nctx = context_row_count ctx in
  let ncand = Region_index.row_count cands in
  let act = make_active active_set ~single_region ~trace in
  let out = Vec.create () in
  let i = ref 0 and j = ref 0 in
  let quit = ref false in
  while (not !quit) && !j < ncand do
    if !j land 4095 = 0 then Timing.checkpoint deadline;
    let cand_start = cands.Region_index.starts.(!j) in
    (* Activate every context region starting at or before the
       candidate. *)
    while !i < nctx && Int64.compare ctx.starts.(!i) cand_start <= 0 do
      Active_set.add act ~iter:ctx.iters.(!i) ~ctx:ctx.ids.(!i)
        ~end_:ctx.ends.(!i);
      incr i
    done;
    Active_set.trim act ~start:cand_start;
    if Active_set.size act = 0 then
      if !i >= nctx then quit := true
      else begin
        (* Fast-forward over candidates that fall in the gap before
           the next context region (Listing 1 lines 21-24). *)
        let next_start = ctx.starts.(!i) in
        let lo = ref !j and hi = ref ncand in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if Int64.compare cands.Region_index.starts.(mid) next_start < 0 then
            lo := mid + 1
          else hi := mid
        done;
        trace (Skip_candidates { from_row = !j; to_row = !lo });
        j := !lo
      end
    else begin
      (* Every active region reaching past the candidate's end
         contains it (its start is <= the candidate's start by sweep
         order). *)
      let cand_end = cands.Region_index.ends.(!j) in
      let row = !j in
      Active_set.iter_end_ge act cand_end (fun ~iter ~ctx ->
          trace (Emit { iter; ctx; cand = cands.Region_index.ids.(row) });
          Vec.push out
            {
              m_iter = iter;
              m_ctx = ctx;
              m_cand = cands.Region_index.ids.(row);
              m_rank = cands.Region_index.region_ranks.(row);
            });
      incr j
    end
  done;
  Metrics.incr m_sweeps_narrow;
  Metrics.add m_sweep_matches (Vec.length out);
  out

let select_wide ?(active_set = Active_set.Sorted_list) ?(trace = no_trace)
    ?(deadline = Timing.no_deadline) ~single_region (ctx : context)
    (cands : Region_index.t) =
  let nctx = context_row_count ctx in
  let ncand = Region_index.row_count cands in
  let act = make_active active_set ~single_region ~trace in
  let out = Vec.create () in
  (* Pending candidates: regions whose end lies ahead of the sweep, so
     a later-starting context region may still overlap them.  Sorted
     on end descending like the paper's active list. *)
  let pend_ends = Vec.create () and pend_rows = Vec.create () in
  let pending_insert e row =
    let lo = ref 0 and hi = ref (Vec.length pend_ends) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Int64.compare (Vec.get pend_ends mid) e >= 0 then lo := mid + 1
      else hi := mid
    done;
    Vec.insert pend_ends !lo e;
    Vec.insert pend_rows !lo row
  in
  let emit ~iter ~ctx_id ~row =
    trace (Emit { iter; ctx = ctx_id; cand = cands.Region_index.ids.(row) });
    Vec.push out
      {
        m_iter = iter;
        m_ctx = ctx_id;
        m_cand = cands.Region_index.ids.(row);
        m_rank = cands.Region_index.region_ranks.(row);
      }
  in
  let i = ref 0 and j = ref 0 in
  let steps = ref 0 in
  let quit = ref false in
  while (not !quit) && (!i < nctx || !j < ncand) do
    incr steps;
    if !steps land 4095 = 0 then Timing.checkpoint deadline;
    let context_turn =
      !i < nctx
      && (!j >= ncand
         || Int64.compare ctx.starts.(!i) cands.Region_index.starts.(!j) <= 0)
    in
    if context_turn then begin
      let c_start = ctx.starts.(!i)
      and c_end = ctx.ends.(!i)
      and c_iter = ctx.iters.(!i)
      and c_id = ctx.ids.(!i) in
      (* A covered region is skipped entirely: the covering region of
         the same iteration was active at or before this start, so it
         already matched every pending candidate this one would. *)
      if Active_set.covered act ~iter:c_iter ~end_:c_end then
        trace (Skip_covered { iter = c_iter; ctx = c_id })
      else begin
        (* Pending candidates reaching to this region's start overlap
           it. *)
        let k = ref 0 in
        while
          !k < Vec.length pend_ends
          && Int64.compare (Vec.get pend_ends !k) c_start >= 0
        do
          emit ~iter:c_iter ~ctx_id:c_id ~row:(Vec.get pend_rows !k);
          incr k
        done;
        (* What the scan did not reach is dead for every future
           context region as well (their starts only grow). *)
        while Vec.length pend_ends > !k do
          ignore (Vec.pop pend_ends);
          ignore (Vec.pop pend_rows)
        done;
        Active_set.add act ~iter:c_iter ~ctx:c_id ~end_:c_end
      end;
      incr i
    end
    else begin
      let cand_start = cands.Region_index.starts.(!j) in
      Active_set.trim act ~start:cand_start;
      if Active_set.size act = 0 && !i >= nctx then quit := true
      else begin
        (* Every active region overlaps the candidate: it starts at or
           before it and ends at or after its start. *)
        let row = !j in
        Active_set.iter_all act (fun ~iter ~ctx ->
            emit ~iter ~ctx_id:ctx ~row);
        (* Only a later context region can meet a pending candidate,
           and those start at [ctx.starts.(!i)] or after: a candidate
           ending before that, or with no context left, is dead now.
           Without this guard pending grows with every candidate and
           the sweep turns quadratic. *)
        let cand_end = cands.Region_index.ends.(!j) in
        if !i < nctx && Int64.compare cand_end ctx.starts.(!i) >= 0 then
          pending_insert cand_end !j;
        incr j
      end
    end
  done;
  Metrics.incr m_sweeps_wide;
  Metrics.add m_sweep_matches (Vec.length out);
  out
