(** Shredded XML documents.

    A document is stored column-wise, indexed by pre-order rank ([pre]),
    exactly as in MonetDB/XQuery's relational encoding: for each node
    its [kind], subtree [size] (number of proper descendants), [level],
    [parent], interned [name] and string [value].  Attributes live in a
    separate table clustered on their owner's [pre].  Node ids are the
    [pre] ranks, which are also the document order (paper §4.3 "uses
    the pre-order rank as node-id").

    [pre = 0] is the document node itself; the root element is
    [pre = 1]. *)

type kind =
  | Document
  | Element
  | Text
  | Comment
  | Pi

(** One node of a strong-DataGuide summary ({!Dataguide}): a distinct
    root-to-node label path, its sorted element pres, and the child
    paths extending it.  Defined here so the per-document cache slot in
    {!t} can hold a built guide; construction and lookup live in
    {!Dataguide}. *)
type guide_node = {
  g_name : int;  (** interned element name; [-1] on the document root *)
  mutable g_pres : int array;
      (** sorted pres of the elements reached by this label path.
          Shared with every consumer — never mutate. *)
  g_children : (int, guide_node) Hashtbl.t;  (** keyed on interned name *)
}

(** A built strong DataGuide for one document. *)
type guide = {
  guide_root : guide_node;  (** stands for the document node (pre 0) *)
  guide_paths : int;  (** distinct label paths in the document *)
  mutable guide_generation : int;
      (** the catalogue generation the guide is valid for
          ({!Standoff.Catalog.generation}); {!Dataguide.get} rebuilds
          on mismatch, so updated documents never serve stale pres.
          Re-stamped in place by {!Dataguide.restamp} when an update
          changed only regions. *)
}

type t = private {
  doc_name : string;
  doc_uid : int;
      (** process-unique identity, assigned at construction.  Unlike
          [doc_name] it can never alias: two documents of the same name
          (in two collections, or shredded twice) get distinct uids,
          which is what the engine's result cache keys document sets on. *)
  kind : kind array;
  size : int array;
  level : int array;
  parent : int array;       (** [-1] for the document node *)
  name : int array;         (** interned name; [-1] for unnamed kinds *)
  value : string array;     (** text/comment data, PI data; [""] otherwise *)
  attr_owner : int array;   (** clustered on owner pre *)
  attr_name : int array;
  attr_value : string array;
  attr_first : int array;   (** length [n+1]; attrs of [p] are rows
                                [attr_first.(p) .. attr_first.(p+1) - 1] *)
  names : Name_pool.t;
  index_lock : Mutex.t;
      (** serialises this document's lazy index builds; builds on
          distinct documents proceed concurrently *)
  mutable elem_index : (int, int array) Hashtbl.t option;
  mutable dataguide : guide option;
}

(** [of_dom ~name dom] shreds a DOM document. *)
val of_dom : name:string -> Standoff_xml.Dom.document -> t

(** [of_columns ...] reassembles a document from stored columns — the
    persistence layer's constructor.  [attr_first] is derived from
    [attr_owner].  The encoding invariants are re-validated.
    @raise Failure when the columns are inconsistent. *)
val of_columns :
  doc_name:string ->
  names:string array ->
  kind:kind array ->
  size:int array ->
  level:int array ->
  parent:int array ->
  name:int array ->
  value:string array ->
  attr_owner:int array ->
  attr_name:int array ->
  attr_value:string array ->
  t

(** [parse ~name s] is [of_dom] after parsing [s]. *)
val parse : name:string -> string -> t

(** [node_count d] is the total number of nodes (excluding attributes). *)
val node_count : t -> int

(** [attribute_count d] is the number of attribute rows. *)
val attribute_count : t -> int

(** [root d] is the pre rank of the root element (always [1]).
    @raise Invalid_argument on a pathological empty document. *)
val root : t -> int

(** [kind_of d pre] is the node kind. *)
val kind_of : t -> int -> kind

(** [name_of d pre] is the node's qualified name ([None] for text,
    comments and the document node; PI targets are names). *)
val name_of : t -> int -> string option

(** [value_of d pre] is the node's own string payload (text content for
    text nodes, data for comments/PIs, [""] otherwise). *)
val value_of : t -> int -> string

(** [parent_of d pre] is the parent pre, or [None] for the document
    node. *)
val parent_of : t -> int -> int option

(** [subtree_size d pre] is the number of proper descendants. *)
val subtree_size : t -> int -> int

(** [level_of d pre] is the depth ([0] for the document node). *)
val level_of : t -> int -> int

(** [is_ancestor d a b] holds when [a] is a proper ancestor of [b]
    (constant time via the pre/size window). *)
val is_ancestor : t -> int -> int -> bool

(** [children d pre] lists the child pres in document order
    (O(children)). *)
val children : t -> int -> int list

(** [iter_children d pre f] applies [f] to each child pre in order. *)
val iter_children : t -> int -> (int -> unit) -> unit

(** [attributes d pre] is the [(name, value)] list of [pre]'s
    attributes, in source order. *)
val attributes : t -> int -> (string * string) list

(** [attribute d pre name] is the value of attribute [name] on [pre],
    if present. *)
val attribute : t -> int -> string -> string option

(** [string_value d pre] is the XPath string value: the concatenation
    of all descendant text (the node's own text for a text node). *)
val string_value : t -> int -> string

(** [elements_named d name] is the sorted array of pres of elements
    called [name]; the underlying per-name index is built lazily on
    first use and cached (the paper's "element index").  The returned
    array is shared — callers must not mutate it. *)
val elements_named : t -> string -> int array

(** [all_elements d] is the sorted array of all element pres. *)
val all_elements : t -> int array

(** [with_index_lock d f] runs [f] holding [d]'s index-build lock —
    the double-checked publication discipline {!Dataguide.get} shares
    with the element index. *)
val with_index_lock : t -> (unit -> 'a) -> 'a

(** [dataguide_cache d] is the cached guide, if one has been built
    (possibly for an older generation — the caller checks). *)
val dataguide_cache : t -> guide option

(** [publish_dataguide d g] installs [g] as the cached guide,
    replacing any older-generation one.  Call under
    {!with_index_lock}. *)
val publish_dataguide : t -> guide -> unit

(** [to_dom d pre] re-materialises the subtree rooted at [pre] as a DOM
    node.  [pre] may be the document node, in which case the root
    element is returned. *)
val to_dom : t -> int -> Standoff_xml.Dom.node

(** [pp_node fmt (d, pre)] prints a one-line description of a node,
    e.g. ["<shot id='Intro'> (pre 4)"] — used in examples and error
    messages. *)
val pp_node : Format.formatter -> t * int -> unit

(** [check_invariants d] verifies the pre/size/level/parent encoding
    is internally consistent; raises [Failure] with a description
    otherwise.  Used by the test-suite and the shredder's own tests. *)
val check_invariants : t -> unit
