(** Deterministic XMark auction-site document generator.

    Replaces the original xmlgen tool (Schmidt et al., VLDB 2002) as
    the workload source of the paper's evaluation (§4.6).  The schema —
    [site]/[regions]/[item], [categories], [catgraph], [people]/
    [person], [open_auctions]/[open_auction]/[bidder],
    [closed_auctions] — and the relative entity cardinalities follow
    XMark; sizes scale linearly in the scale factor exactly as xmlgen's
    do ([scale = 1.0] is the paper's 110 MB document, [0.1] the 11 MB
    one). *)

type params = {
  scale : float;   (** XMark scale factor; > 0 *)
  seed : int64;    (** generator seed; equal seeds, equal documents *)
}

(** Entity counts for a scale factor (before the minimum of 1 per
    entity kind is applied). *)
type counts = {
  items : int;
  persons : int;
  open_auctions : int;
  closed_auctions : int;
  categories : int;
}

(** [counts_for scale] is the XMark cardinality table scaled
    linearly. *)
val counts_for : float -> counts

(** [generate params] builds the document. *)
val generate : params -> Standoff_xml.Dom.document

