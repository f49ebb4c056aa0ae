(** Strong DataGuide: a structural summary of one shredded document.

    One guide node per distinct root-to-node label path, annotated
    with the sorted pre ranks of the elements on that path
    ({!Doc.guide_node}).  A multi-step downward path — child ([/name])
    and descendant ([//name]) steps — resolves to its complete,
    duplicate-free, document-ordered candidate set in one walk over
    the guide tree, instead of one axis sweep per step; the per-path
    counts drive the optimizer's cost model ({!Standoff_xquery}).

    Guides build lazily on first probe, per document, in one
    sequential pre-order pass under the document's own index lock
    (double-checked publication, like [Doc.elem_index]).  Staleness is governed by the caller-supplied
    catalogue generation: {!get} rebuilds whenever the cached guide's
    generation differs from the document's current one, so updates
    invalidate guides exactly as they invalidate cached results.  An
    update that changes only regions alters no label path, so it
    moves the current guide to the new stamp ({!restamp}) instead. *)

type step = bool * string
(** One path step [(descendant, name)]: [(false, n)] selects the
    child elements named [n] of the previous step's matches (the
    document node, for the first step); [(true, n)] selects their
    proper descendants named [n] at any depth.  These are exactly the
    semantics of [/n] and [//n] applied to downward name paths. *)

(** [build ~generation d] constructs the guide in one pre-order pass
    and stamps it with [generation].  Exposed for benchmarks; query
    evaluation goes through {!get}. *)
val build : generation:int -> Doc.t -> Doc.guide

(** [get ~generation d] is the cached guide when its stamp matches
    [generation], else a fresh {!build} published under the document's
    index lock.  Concurrent callers race benignly: exactly one builds,
    the rest block and receive the published guide. *)
val get : generation:int -> Doc.t -> Doc.guide

(** [restamp d ~from ~generation] re-stamps [d]'s cached guide with
    [generation] when it carries stamp [from], so the next {!get} at
    [generation] returns the same guide without a rebuild; any other
    cached guide is left to go stale.  Only for a generation bump that
    changed no element or label path (region updates), and only under
    the document's write exclusion. *)
val restamp : Doc.t -> from:int -> generation:int -> unit

(** [lookup d g steps] is the sorted, duplicate-free array of pres of
    the elements [steps] reaches from the document node.  A name
    absent from the document matches nothing.  Single-path matches
    return the guide's own array, shared — callers must not mutate it
    (the {!Doc.elements_named} contract). *)
val lookup : Doc.t -> Doc.guide -> step list -> int array

(** [count d g steps] is [Array.length (lookup d g steps)] without
    materialising the merge — the optimizer's per-path cardinality. *)
val count : Doc.t -> Doc.guide -> step list -> int

(** [path_count g] is the number of distinct label paths [g]
    summarises. *)
val path_count : Doc.guide -> int
