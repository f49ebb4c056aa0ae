(** The output of a merge-join sweep: one row per (iteration, context
    annotation, candidate region) match, held in parallel [int]
    columns rather than as one boxed record per match.  Rows
    [0 .. len - 1] are valid; the arrays may be longer. *)

type t = private {
  mutable len : int;
  mutable iters : int array;
  mutable ctxs : int array;   (** context annotation id (pre) *)
  mutable cands : int array;  (** candidate annotation id (pre) *)
  mutable ranks : int array;  (** which region of the candidate area matched *)
}

(** [create ~capacity] is empty, with room for [capacity] rows before
    the columns grow. *)
val create : capacity:int -> t

(** [push t ~iter ~ctx ~cand ~rank] appends a row (amortised O(1)). *)
val push : t -> iter:int -> ctx:int -> cand:int -> rank:int -> unit

val length : t -> int
