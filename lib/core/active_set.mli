(** The set of active context regions maintained by the StandOff merge
    joins, with two interchangeable implementations.

    The sweep needs three operations:
    - [add]: a context region becomes active (subject to the
      single-region per-iteration skip/replace refinements);
    - [trim]: retire regions ending before the sweep position;
    - [emit_end_ge]: emit a match for every active region whose end
      reaches a threshold (the result-emitting scan).

    All state is flat: entries live in a position column
    ({!Region_index.positions}) beside [int] columns, and in
    single-region mode the one live region per iteration sits in
    columns indexed by iteration.  Positions are passed as a column
    and a row, never as an [int64] argument, so a sweep boxes
    nothing per row.

    {b Sorted_list} is the paper's published structure (§4.5, §5): a
    list sorted on [end] descending, trimmed at the tail, with
    deletions possibly in the middle — O(n) worst-case per insertion.

    {b Lazy_heap} is the paper's suggested improvement ("it could be
    beneficial to substitute the stack … by a heap, in
    data-distributions that cause it to grow long"): a max-heap on
    [end] with lazy invalidation backed by the per-iteration columns, so
    insertion is O(log n) and the emitting scan visits only the heap's
    qualifying top portion.  Available in single-region mode (where the
    per-iteration columns pin the one live region per iteration).

    Both implementations produce identical match sets; the ablation
    benchmark ([bench/main.exe active-set]) shows where they part on
    adversarial overlap distributions. *)

type kind =
  | Sorted_list
  | Lazy_heap

(** [kind_of_string s] parses ["list" | "heap"].
    @raise Invalid_argument otherwise. *)
val kind_of_string : string -> kind

val kind_to_string : kind -> string

type t

(** Trace callbacks, forwarded to the merge join's trace hook. *)
type callbacks = {
  on_add : iter:int -> ctx:int -> unit;
  on_skip : iter:int -> ctx:int -> unit;
  on_replace : iter:int -> removed:int -> by:int -> unit;
  on_trim : iter:int -> ctx:int -> unit;
}

(** [create kind ~single_region ?callbacks ~iters:(lo, hi) ()] is an
    empty set for context rows of iterations [lo .. hi]; single-region
    mode keeps [hi - lo + 1] slots of per-iteration columns.  Without
    [callbacks] nothing is reported.  [Lazy_heap] requires
    [single_region].
    @raise Invalid_argument on [Lazy_heap] in multi-region mode. *)
val create :
  kind ->
  single_region:bool ->
  ?callbacks:callbacks ->
  iters:int * int ->
  unit ->
  t

(** [size t] is the number of live active regions. *)
val size : t -> int

(** [add t ~iter ~ctx ends i] activates a context region ending at
    [ends.{i}].  In single-region mode a region covered by its
    iteration's live region is skipped, and a region reaching further
    replaces it. *)
val add : t -> iter:int -> ctx:int -> Region_index.positions -> int -> unit

(** [trim t starts j] retires every region with [end < starts.{j}]. *)
val trim : t -> Region_index.positions -> int -> unit

(** [emit_end_ge t ends j out ~cand ~rank] pushes [(iter, ctx, cand,
    rank)] onto [out] for every live region with [end >= ends.{j}].
    Row order is unspecified (the joins sort matches afterwards);
    [Sorted_list] happens to emit in descending end order, which the
    Figure 4 trace relies on. *)
val emit_end_ge :
  t -> Region_index.positions -> int -> Matches.t -> cand:int -> rank:int -> unit

(** [emit_all t out ~cand ~rank] is [emit_end_ge] for every live region
    (the overlap sweep emits against all active regions). *)
val emit_all : t -> Matches.t -> cand:int -> rank:int -> unit

(** [covered t ~iter ends i] — single-region mode: does the iteration's
    live region already reach [ends.{i}]?  (Exposed for the wide
    sweep's skip decision.)  Always [false] in multi-region mode. *)
val covered : t -> iter:int -> Region_index.positions -> int -> bool
