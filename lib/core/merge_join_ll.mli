(** Loop-lifted StandOff MergeJoin (paper §4.5, Listing 1).

    One sweep over the [start]-clustered region index evaluates a
    StandOff semi-join for {e all} iterations of the enclosing for-loop
    at once.  The algorithm keeps a list of {e active} context regions
    sorted on their [end] value (descending); a context region is
    active while it can still produce results for the current sweep
    position.

    Two refinements from the paper are applied per iteration in
    single-region mode:
    - {e skip} (Listing 1 lines 11–18): an arriving context region
      already covered by the same iteration's active region (its end
      does not extend past it) is not added — it could only produce
      duplicate results;
    - {e replace} (line 41): an arriving context region whose end
      extends past the same iteration's active region supersedes it —
      every future candidate the old region contains, the new one
      contains too (candidates arrive in non-decreasing [start]).

    Together these keep {e at most one active region per iteration},
    so the active list length is bounded by the number of concurrently
    live iterations.  Note a deliberate deviation from the printed
    pseudo-code: Listing 1's skip test compares against the {e most
    recently added} context item regardless of its iteration (the
    Figure 4 trace skips iter-1's [c3 = \[20,30\]] because iter-2's
    [c2 = \[12,35\]] covers it).  Applied across iterations that test
    loses results — with the same context, a candidate [\[22,28\]]
    is contained in [c3] and must be reported for iteration 1, which
    cannot happen once [c3] is dropped.  This implementation therefore
    skips/replaces within one iteration only; on the Figure 4 input it
    produces exactly the paper's result set.

    In multi-region (element-representation) mode the skip/replace
    refinements are disabled and matches carry the context annotation
    id, so the post-processing in {!Join} can verify that {e every}
    region of a candidate is covered by the {e same} context
    annotation (the paper's [contains(a1,a2)], §3.1). *)

type context = private {
  iters : int array;
  ids : int array;
  starts : Region_index.positions;
  ends : Region_index.positions;
}
(** One row per context {e region} (areas contribute several rows),
    sorted on [(start asc, end desc)]; positions in flat columns like
    the region index's. *)

(** [context_of_annotations annots ~iters ~pres] looks up the area of
    each [(iter, pre)] context node in O(1) ({!Annots.slot_of}) —
    nodes that are not area-annotations are dropped — and produces the
    sorted region rows. *)
val context_of_annotations :
  Annots.t -> iters:int array -> pres:int array -> context

(** [context_row_count c] is the number of region rows. *)
val context_row_count : context -> int

(** Trace events, mirroring the line numbers of Listing 1; used by the
    Figure 4 execution-trace test and by [--trace] debugging in the
    CLI.  Events are only built when a [trace] is attached. *)
type trace_event =
  | Add_active of { iter : int; ctx : int }      (** line 41 *)
  | Skip_covered of { iter : int; ctx : int }    (** lines 11–18 *)
  | Replace_active of { iter : int; removed : int; by : int }  (** line 41 *)
  | Trim_active of { iter : int; ctx : int }     (** lines 29–31 *)
  | Emit of { iter : int; ctx : int; cand : int } (** lines 32–34 *)
  | Skip_candidates of { from_row : int; to_row : int }  (** lines 21–24 *)

(** [select_narrow ?active_set ?trace ?deadline ~single_region context
    candidates] emits one {!Matches} row per (active context region,
    contained candidate region) pair.  With [single_region] the
    per-iteration skip/replace refinements are on and each
    [(iter, cand)] is emitted at most once.  [active_set] selects the
    active-set structure (default: the paper's sorted list; see
    {!Active_set}).
    @raise Standoff_util.Timing.Deadline_exceeded on timeout. *)
val select_narrow :
  ?active_set:Active_set.kind ->
  ?trace:(trace_event -> unit) ->
  ?deadline:Standoff_util.Timing.deadline ->
  single_region:bool ->
  context ->
  Region_index.t ->
  Matches.t

(** [select_wide ?active_set ?trace ?deadline ~single_region context
    candidates] is the overlap semi-join sweep.  In addition to the
    active set it keeps {e pending} candidates — candidates whose
    region extends past the sweep position and that later-starting
    context regions may still overlap — as a flat column of candidate
    rows that each context region filters in one pass.  Matches may be emitted more
    than once per [(iter, cand)]; {!Join} deduplicates. *)
val select_wide :
  ?active_set:Active_set.kind ->
  ?trace:(trace_event -> unit) ->
  ?deadline:Standoff_util.Timing.deadline ->
  single_region:bool ->
  context ->
  Region_index.t ->
  Matches.t
