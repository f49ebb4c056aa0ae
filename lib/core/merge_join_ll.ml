module Timing = Standoff_util.Timing
module Metrics = Standoff_obs.Metrics
module A1 = Bigarray.Array1
module Radix = Standoff_util.Radix

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
  starts : Region_index.positions;
  ends : Region_index.positions;
}

let context_of_annotations annots ~iters ~pres =
  let first = annots.Annots.first_region in
  let n = ref 0 in
  for i = 0 to Array.length pres - 1 do
    let slot = Annots.slot_of annots pres.(i) in
    if slot >= 0 then n := !n + first.(slot + 1) - first.(slot)
  done;
  let n = !n in
  let c =
    {
      iters = Array.make n 0;
      ids = Array.make n 0;
      starts = Region_index.positions n;
      ends = Region_index.positions n;
    }
  in
  let k = ref 0 in
  for i = 0 to Array.length pres - 1 do
    let pre = pres.(i) in
    let slot = Annots.slot_of annots pre in
    if slot >= 0 then
      for r = first.(slot) to first.(slot + 1) - 1 do
        A1.unsafe_set c.starts !k (A1.unsafe_get annots.Annots.region_starts r);
        A1.unsafe_set c.ends !k (A1.unsafe_get annots.Annots.region_ends r);
        c.iters.(!k) <- iters.(i);
        c.ids.(!k) <- pre;
        incr k
      done
  done;
  (* Context nodes arrive in document order; when annotation regions
     nest like the tree that already is the sweep order [(start asc,
     end desc)], so check before sorting. *)
  let sorted = ref true and i = ref 1 in
  while !sorted && !i < n do
    let s0 = A1.unsafe_get c.starts (!i - 1) and s1 = A1.unsafe_get c.starts !i in
    if s0 > s1 || (s0 = s1 && A1.unsafe_get c.ends (!i - 1) < A1.unsafe_get c.ends !i)
    then sorted := false;
    incr i
  done;
  if !sorted then c
  else begin
    (* Two stable radix sorts of the row order, minor key first; ties
       keep their input order. *)
    let perm = Array.init n Fun.id in
    Radix.sort_by_int64s c.ends ~descending:true perm;
    Radix.sort_by_int64s c.starts ~descending:false perm;
    let gather (col : Region_index.positions) =
      let out = Region_index.positions n in
      Array.iteri (fun k row -> A1.unsafe_set out k (A1.unsafe_get col row)) perm;
      out
    in
    {
      iters = Array.map (Array.get c.iters) perm;
      ids = Array.map (Array.get c.ids) perm;
      starts = gather c.starts;
      ends = gather c.ends;
    }
  end

let context_row_count c = Array.length c.ids

type trace_event =
  | Add_active of { iter : int; ctx : int }
  | Skip_covered of { iter : int; ctx : int }
  | Replace_active of { iter : int; removed : int; by : int }
  | Trim_active of { iter : int; ctx : int }
  | Emit of { iter : int; ctx : int; cand : int }
  | Skip_candidates of { from_row : int; to_row : int }

(* The active context set lives in [Active_set]; the paper's sorted
   list is the default, the lazy heap (§5's suggested improvement) is
   selectable per sweep.  Trace events are only built when a trace is
   attached: an untraced sweep allocates nothing per row. *)
let make_active kind ~single_region ~trace (ctx : context) =
  (* The iteration range, empty ([0, -1]) for an empty context. *)
  let lo = ref 0 and hi = ref (-1) in
  Array.iteri
    (fun k it ->
      if k = 0 || it < !lo then lo := it;
      if k = 0 || it > !hi then hi := it)
    ctx.iters;
  let callbacks =
    Option.map
      (fun f ->
        {
          Active_set.on_add = (fun ~iter ~ctx -> f (Add_active { iter; ctx }));
          on_skip = (fun ~iter ~ctx -> f (Skip_covered { iter; ctx }));
          on_replace =
            (fun ~iter ~removed ~by -> f (Replace_active { iter; removed; by }));
          on_trim = (fun ~iter ~ctx -> f (Trim_active { iter; ctx }));
        })
      trace
  in
  Active_set.create kind ~single_region ?callbacks ~iters:(!lo, !hi) ()

(* Report the rows [from ..] of [out] that the last emit appended. *)
let trace_emits trace (out : Matches.t) ~from =
  match trace with
  | None -> ()
  | Some f ->
      for k = from to out.len - 1 do
        f (Emit { iter = out.iters.(k); ctx = out.ctxs.(k); cand = out.cands.(k) })
      done

let select_narrow ?(active_set = Active_set.Sorted_list) ?trace
    ?(deadline = Timing.no_deadline) ~single_region (ctx : context)
    (cands : Region_index.t) =
  let nctx = context_row_count ctx in
  let ncand = Region_index.row_count cands in
  let act = make_active active_set ~single_region ~trace ctx in
  (* Typically each candidate row lies in one live context region. *)
  let out = Matches.create ~capacity:ncand in
  let i = ref 0 and j = ref 0 in
  let quit = ref false in
  while (not !quit) && !j < ncand do
    if !j land 4095 = 0 then Timing.checkpoint deadline;
    let cand_start = A1.unsafe_get cands.starts !j in
    (* Activate every context region starting at or before the
       candidate. *)
    while !i < nctx && A1.unsafe_get ctx.starts !i <= cand_start do
      Active_set.add act ~iter:ctx.iters.(!i) ~ctx:ctx.ids.(!i) ctx.ends !i;
      incr i
    done;
    Active_set.trim act cands.starts !j;
    if Active_set.size act = 0 then
      if !i >= nctx then quit := true
      else begin
        (* Fast-forward over candidates that fall in the gap before
           the next context region (Listing 1 lines 21-24). *)
        let next_start = A1.unsafe_get ctx.starts !i in
        let lo = ref !j and hi = ref ncand in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if A1.unsafe_get cands.starts mid < next_start then lo := mid + 1
          else hi := mid
        done;
        (match trace with
        | Some f -> f (Skip_candidates { from_row = !j; to_row = !lo })
        | None -> ());
        j := !lo
      end
    else begin
      (* Every active region reaching past the candidate's end
         contains it (its start is <= the candidate's start by sweep
         order). *)
      let from = out.len in
      Active_set.emit_end_ge act cands.ends !j out ~cand:cands.ids.(!j)
        ~rank:cands.region_ranks.(!j);
      trace_emits trace out ~from;
      incr j
    end
  done;
  Metrics.incr m_sweeps_narrow;
  Metrics.add m_sweep_matches out.len;
  out

let select_wide ?(active_set = Active_set.Sorted_list) ?trace
    ?(deadline = Timing.no_deadline) ~single_region (ctx : context)
    (cands : Region_index.t) =
  let nctx = context_row_count ctx in
  let ncand = Region_index.row_count cands in
  let act = make_active active_set ~single_region ~trace ctx in
  let out = Matches.create ~capacity:ncand in
  (* Pending candidates: rows whose region ends ahead of the sweep, so
     a later-starting context region may still overlap them.  A flat
     column of candidate rows, appended in sweep order; each context
     region filters it in one pass. *)
  let pending = ref (Array.make 16 0) and n_pending = ref 0 in
  let i = ref 0 and j = ref 0 in
  let steps = ref 0 in
  let quit = ref false in
  while (not !quit) && (!i < nctx || !j < ncand) do
    incr steps;
    if !steps land 4095 = 0 then Timing.checkpoint deadline;
    let context_turn =
      !i < nctx
      && (!j >= ncand
         || A1.unsafe_get ctx.starts !i <= A1.unsafe_get cands.starts !j)
    in
    if context_turn then begin
      let c_iter = ctx.iters.(!i) and c_id = ctx.ids.(!i) in
      (* A covered region is skipped entirely: the covering region of
         the same iteration was active at or before this start, so it
         already matched every pending candidate this one would. *)
      if Active_set.covered act ~iter:c_iter ctx.ends !i then (
        match trace with
        | Some f -> f (Skip_covered { iter = c_iter; ctx = c_id })
        | None -> ())
      else begin
        (* Pending candidates reaching to this region's start overlap
           it; the others are dead for every future context region as
           well (their starts only grow), so they are dropped in the
           same pass. *)
        let c_start = A1.unsafe_get ctx.starts !i in
        let pend = !pending and kept = ref 0 in
        let from = out.len in
        for k = 0 to !n_pending - 1 do
          let row = pend.(k) in
          if A1.unsafe_get cands.ends row >= c_start then begin
            Matches.push out ~iter:c_iter ~ctx:c_id ~cand:cands.ids.(row)
              ~rank:cands.region_ranks.(row);
            pend.(!kept) <- row;
            incr kept
          end
        done;
        n_pending := !kept;
        trace_emits trace out ~from;
        Active_set.add act ~iter:c_iter ~ctx:c_id ctx.ends !i
      end;
      incr i
    end
    else begin
      Active_set.trim act cands.starts !j;
      if Active_set.size act = 0 && !i >= nctx then quit := true
      else begin
        (* Every active region overlaps the candidate: it starts at or
           before it and ends at or after its start. *)
        let from = out.len in
        Active_set.emit_all act out ~cand:cands.ids.(!j)
          ~rank:cands.region_ranks.(!j);
        trace_emits trace out ~from;
        (* Only a later context region can meet a pending candidate,
           and those start at [ctx.starts.{!i}] or after: a candidate
           ending before that, or with no context left, is dead now.
           Without this guard pending grows with every candidate and
           the sweep turns quadratic. *)
        if !i < nctx && A1.unsafe_get cands.ends !j >= A1.unsafe_get ctx.starts !i
        then begin
          if !n_pending = Array.length !pending then
            pending := Array.append !pending !pending;
          !pending.(!n_pending) <- !j;
          incr n_pending
        end;
        incr j
      end
    end
  done;
  Metrics.incr m_sweeps_wide;
  Metrics.add m_sweep_matches out.len;
  out
