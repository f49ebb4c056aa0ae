(** Loop-lifted sequence tables: the [iter|pos|item] representation
    (paper §4.1).

    A table holds one item sequence per iteration of the enclosing
    for-loop nest.  Rows are grouped by [iter] (non-decreasing) and the
    position within a group is the sequence position ([pos] is implicit
    in row order).  The surrounding {e loop relation} — the sorted
    array of live iteration numbers — travels separately, because an
    iteration whose sequence is empty has no rows yet still exists
    (this matters for anti-joins and for [count]).

    The item column has two forms.  A sequence of nodes only, the
    output of every step and join, is a column of unboxed node
    {!key}s; atomic values, attributes and mixed sequences are a
    column of boxed {!Item.t}s.  Every operator that produces nodes,
    and every operator here, keeps or builds the node form; an
    [Item.Node] is made only when a caller asks for an item
    ({!item_at}, {!group_list}, {!to_sequence}). *)

(** {1 Node keys}

    A node is packed into one int, [doc_id] in the high bits and [pre]
    in the low 31, so document order ({!Standoff_store.Collection.compare_node})
    is int order. *)

val key : doc_id:int -> pre:int -> int
val key_doc : int -> int
val key_pre : int -> int

(** [keys_of_pres ~doc_id pres] are the keys of [pres] in document
    [doc_id]; document 0's keys are [pres] itself. *)
val keys_of_pres : doc_id:int -> int array -> int array

(** {1 Tables} *)

type column =
  | Nodes of int array  (** node keys *)
  | Items of Item.t array

type t = private {
  iters : int array;
  col : column;
}
(** Invariant: [iters] and the column have the same length and
    [iters] is non-decreasing. *)

(** {1 Construction} *)

(** [empty] has no rows. *)
val empty : t

(** [make iters items] checks the grouping invariant and builds a
    table with a boxed column, as given.  Producers of nodes use
    {!of_nodes} or a {!builder}.
    @raise Invalid_argument when lengths differ or [iters] decreases. *)
val make : int array -> Item.t array -> t

(** [of_nodes iters keys] is {!make} for a column of node keys. *)
val of_nodes : int array -> int array -> t

(** [const ~loop items] gives every iteration in [loop] the same
    sequence [items] — the translation of a literal under loop
    lifting. *)
val const : loop:int array -> Item.t list -> t

(** [builder ()] collects rows for a new table, in the node form for
    as long as every row is a node.  [push b iter item] and
    [push_node b iter key] append one row, [push_row b iter t r]
    appends row [r] of [t] under [iter]; iters must not decrease.
    [build b] checks and returns the table. *)
type builder

val builder : unit -> builder
val push : builder -> int -> Item.t -> unit
val push_node : builder -> int -> int -> unit
val push_row : builder -> int -> t -> int -> unit
val build : builder -> t

(** {1 Observation} *)

(** [row_count t] is the number of rows. *)
val row_count : t -> int

(** [iter_at t i] and [item_at t i] access row [i]. *)
val iter_at : t -> int -> int

val item_at : t -> int -> Item.t

(** [node_keys t] is [t]'s column as node keys when every row is a
    node ([Some [||]] for no rows), [None] when some row is an
    attribute or an atomic value. *)
val node_keys : t -> int array option

(** [iter_node_rows t f] calls [f r key] for every row [r] of [t]
    that holds a node; attribute and atomic rows are skipped. *)
val iter_node_rows : t -> (int -> int -> unit) -> unit

(** {1 Group cursors}

    Operators read a table group by group along the sorted loop
    relation.  A cursor does that in one forward pass over the [iters]
    column: no search and no list per iteration. *)

type cursor = private {
  c_iters : int array;
  mutable lo : int;  (** first row of the current group *)
  mutable hi : int;  (** one past its last row; [lo = hi] when empty *)
}

(** [cursor t] starts before [t]'s first group. *)
val cursor : t -> cursor

(** [seek c iter] moves [c] to iteration [iter]'s group, rows
    [c.lo .. c.hi - 1].  Successive seeks must not decrease [iter];
    an iteration with no rows gives an empty span. *)
val seek : cursor -> int -> unit

(** [group_list t c] is the items of [c]'s current group of [t]. *)
val group_list : t -> cursor -> Item.t list

(** [offsets t ~n] gives random access to a table over the inner loop
    [0 .. n-1]: iteration [i]'s rows are [first.(i) .. first.(i+1) - 1]
    of the result [first]. *)
val offsets : t -> n:int -> int array

(** [to_sequence t] is the single sequence of a table known to live in
    a one-iteration loop; checks that only one distinct iter occurs.
    @raise Invalid_argument otherwise. *)
val to_sequence : t -> Item.t list

(** [iters_present t] is the sorted array of distinct iters that have
    at least one row. *)
val iters_present : t -> int array

(** [distinct sorted] is the distinct values of a sorted array. *)
val distinct : int array -> int array

(** [doc_shards iters keys] splits node rows by document, in ascending
    doc id: each shard is [(doc_id, iters, pres)] in row order.  A
    table of one document is one shard that shares [iters] (and, for
    document 0, [keys] as [pres]). *)
val doc_shards : int array -> int array -> (int * int array * int array) list

(** {1 Loop-lifted operators} *)

(** [map_items f t] applies [f] row-wise. *)
val map_items : (Item.t -> Item.t) -> t -> t

(** [filter p t] keeps rows whose item satisfies [p]. *)
val filter : (Item.t -> bool) -> t -> t

(** [restrict t ~keep] keeps the groups of the sorted iterations
    [keep]. *)
val restrict : t -> keep:int array -> t

(** [append2 t1 t2] is per-iteration sequence concatenation
    [(e1, e2)]: for each iter, the items of [t1] before those of
    [t2]. *)
val append2 : t -> t -> t

(** [concat ts] folds {!append2} over a list; a lone table is returned
    as it is. *)
val concat : t list -> t

(** [distinct_doc_order t] sorts each iteration's sequence in document
    order and removes duplicates — the postprocessing every XPath (and
    StandOff) step requires.  All items must be nodes.  A table already
    in that order is returned as it is, after one comparison per row;
    node keys are otherwise radix-sorted.
    @raise Invalid_argument on an atomic item that needs ordering. *)
val distinct_doc_order : t -> t

(** [count ~loop t] is, per iteration of [loop], the number of rows —
    one [Int] row per iteration, including zero counts. *)
val count : loop:int array -> t -> t

(** [exists ~loop t] is, per iteration, [Bool (sequence is non-empty)]. *)
val exists : loop:int array -> t -> t

(** {1 The map relation of for-loops}

    Translating [for $x in e1 return e2] expands each row of
    [e1]'s table into a fresh inner iteration. *)

type expansion = {
  inner_loop : int array;     (** [0 .. n-1] for [n] rows of the source *)
  outer_of_inner : int array; (** maps inner iter -> outer iter *)
  var_table : t;              (** the loop variable: one item per inner iter *)
  pos_table : t;              (** positional variable [at $p]: 1-based *)
}

(** [expand t] builds the for-loop expansion of binding sequence [t]. *)
val expand : t -> expansion

(** [expand_last t] is the [last()] table of [expand t]'s inner loop:
    inner iteration [i] holds the size of the group row [i] of [t]
    belongs to. *)
val expand_last : t -> t

(** [lift t ~outer_of_inner] re-distributes a table over the inner
    loop: inner iteration [i] receives the sequence that [t] assigns
    to [outer_of_inner.(i)].  One cursor pass; requires
    [outer_of_inner] non-decreasing (which {!expand} guarantees). *)
val lift : t -> outer_of_inner:int array -> t

(** [backmap t ~outer_of_inner] renames inner iters back to outer
    iters, concatenating the inner sequences in inner-iter order —
    the return clause of the FLWOR translation. *)
val backmap : t -> outer_of_inner:int array -> t

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
