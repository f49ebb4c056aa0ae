(** Loop-lifted XPath steps over sequence tables.

    A step takes the [iter|pos|item] table of context nodes (as left by
    the previous step or FLWOR binding) and produces the result table,
    duplicate-free and in document order per iteration.  Contexts that
    span several documents are partitioned per document first — steps
    never match across fragments. *)

(** Raised when a context item is not a node. *)
exception Not_a_node of Standoff_relalg.Item.t

(** [partition_by_doc context ~keep_attribute_owner] splits the node
    rows of [context] by document, as {!Standoff_relalg.Table.doc_shards}
    does: [(doc_id, iters, pres)] shards in ascending doc id.  An
    attribute row stands for its owner element when
    [keep_attribute_owner], and for nothing otherwise.
    @raise Not_a_node on an atomic row. *)
val partition_by_doc :
  Standoff_relalg.Table.t ->
  keep_attribute_owner:bool ->
  (int * int array * int array) list

(** [positional t k] keeps the [k]-th row of every iteration group of
    [t] — the fused form of a literal positional predicate over a
    step result (which is duplicate-free and in document order per
    iteration, so group row rank is the XPath position). *)
val positional : Standoff_relalg.Table.t -> int -> Standoff_relalg.Table.t

(** [axis_step coll axis ?position ~test context] evaluates a standard
    axis step; [position] is a fused positional predicate applied to
    the result.  Attribute items in the context contribute only to the
    [Parent] axis (their owner element); they have no descendants or
    siblings. *)
val axis_step :
  Standoff_store.Collection.t ->
  Axes.axis ->
  ?position:int ->
  test:Node_test.t ->
  Standoff_relalg.Table.t ->
  Standoff_relalg.Table.t

(** [attribute_step coll ~test context] evaluates [attribute::test],
    producing [Attribute] items in attribute-name order per owner. *)
val attribute_step :
  Standoff_store.Collection.t ->
  test:Node_test.t ->
  Standoff_relalg.Table.t ->
  Standoff_relalg.Table.t

(** [attribute_filter coll ~attr ~value context] is the fused
    predicate [context[@attr = "value"]]: it keeps the element rows
    that carry an attribute [attr] whose value is the string [value],
    in their order.  Other rows go, as under the unfused predicate. *)
val attribute_filter :
  Standoff_store.Collection.t ->
  attr:string ->
  value:string ->
  Standoff_relalg.Table.t ->
  Standoff_relalg.Table.t
