(** Document collections and global node handles.

    StandOff steps, like all XPath steps, match only nodes from the
    same XML fragment (paper §3.3); the collection supplies the
    [doc_id] that the join algorithms partition on.  Global document
    order is [(doc_id, pre)] lexicographic. *)

type t

type node = {
  doc_id : int;
  pre : int;
}
(** A node handle valid within one collection. *)

(** [compare_node a b] is document order across the collection. *)
val compare_node : node -> node -> int

(** [create ()] is an empty collection. *)
val create : unit -> t

(** {2 Run views}

    Element constructors build new documents while a query runs.  They
    live in the run's own arena, apart from the shared documents, as
    MonetDB/XQuery keeps constructed fragments in per-query transient
    storage: no query writes to the shared collection. *)

(** [run_view coll] is a view of [coll] with an empty arena.  It
    shares [coll]'s documents, names and BLOBs; documents
    {!add_constructed} puts in its arena are visible through this view
    only, and go when the view does.  Only the domain evaluating the
    run may use the arena. *)
val run_view : t -> t

(** [add_constructed view doc] puts [doc] in [view]'s arena and
    returns its id.  Arena ids lie above every shared id, so in
    document order constructed documents follow the shared ones, in
    construction order.  The arena has no name table: {!doc_id_of_name}
    never finds a constructed document.
    @raise Invalid_argument if [view] is not a {!run_view}. *)
val add_constructed : t -> Doc.t -> int

(** [in_arena id] holds when [id] is an arena id: its document was
    built by a run and is known only to that run's view. *)
val in_arena : int -> bool

(** [add coll doc] registers [doc] and returns its id.
    @raise Invalid_argument if a document with the same name exists. *)
val add : t -> Doc.t -> int

(** [add_blob coll blob] registers a BLOB under its name.
    @raise Invalid_argument on duplicate names. *)
val add_blob : t -> Blob.t -> unit

(** [doc coll id] is the document with id [id], shared or in
    [coll]'s arena.
    @raise Invalid_argument on an unknown id. *)
val doc : t -> int -> Doc.t

(** [doc_id_of_name coll name] looks a document up by name. *)
val doc_id_of_name : t -> string -> int option

(** [blob coll name] looks a BLOB up by name. *)
val blob : t -> string -> Blob.t option

(** [doc_count coll] is the number of registered (shared) documents;
    arena documents do not count. *)
val doc_count : t -> int

(** [root_node coll id] is the handle of document [id]'s document
    node. *)
val root_node : t -> int -> node

(** [load_string coll ~name s] parses, shreds and registers a document
    in one step, returning its id. *)
val load_string : t -> name:string -> string -> int

(** [fold_docs f acc coll] folds over the shared [(id, doc)] pairs in
    id order. *)
val fold_docs : ('acc -> int -> Doc.t -> 'acc) -> 'acc -> t -> 'acc

(** [fold_blobs f acc coll] folds over registered BLOBs (unspecified
    order). *)
val fold_blobs : ('acc -> Blob.t -> 'acc) -> 'acc -> t -> 'acc
