(** Growable vectors.

    A thin, predictable dynamic-array abstraction used throughout the
    storage and join layers, where result sizes are not known in
    advance.  Elements are stored in a plain [array], so [int] payloads
    stay unboxed. *)

type 'a t

(** [create ()] is an empty vector. *)
val create : unit -> 'a t

(** [length v] is the number of elements currently stored. *)
val length : 'a t -> int

(** [is_empty v] is [length v = 0]. *)
val is_empty : 'a t -> bool

(** [get v i] is the [i]-th element.
    @raise Invalid_argument if [i] is out of bounds. *)
val get : 'a t -> int -> 'a

(** [set v i x] replaces the [i]-th element.
    @raise Invalid_argument if [i] is out of bounds. *)
val set : 'a t -> int -> 'a -> unit

(** [push v x] appends [x] at the end, growing the backing store as
    needed (amortised O(1)). *)
val push : 'a t -> 'a -> unit

(** [pop v] removes and returns the last element.
    @raise Invalid_argument on an empty vector. *)
val pop : 'a t -> 'a

(** [last v] is the last element without removing it.
    @raise Invalid_argument on an empty vector. *)
val last : 'a t -> 'a

(** [clear v] resets the length to 0 (capacity is retained). *)
val clear : 'a t -> unit

(** [truncate v n] shortens [v] to its first [n] elements.
    @raise Invalid_argument if [n] exceeds the current length. *)
val truncate : 'a t -> int -> unit

(** [remove v i] removes the element at index [i], shifting the
    subsequent elements left (O(n)).  Needed by the active-item list of
    the StandOff merge joins, which may delete in the middle. *)
val remove : 'a t -> int -> unit

(** [insert v i x] inserts [x] at index [i], shifting subsequent
    elements right (O(n)). *)
val insert : 'a t -> int -> 'a -> unit

(** [to_array v] is a fresh array with the contents of [v]. *)
val to_array : 'a t -> 'a array

(** [to_list v] is the contents of [v] as a list, in order. *)
val to_list : 'a t -> 'a list

(** [of_array a] is a vector with the elements of [a]. *)
val of_array : 'a array -> 'a t

(** [of_list l] is a vector with the elements of [l]. *)
val of_list : 'a list -> 'a t

(** [iter f v] applies [f] to every element in order. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [iteri f v] applies [f i x] to every element [x] at index [i]. *)
val iteri : (int -> 'a -> unit) -> 'a t -> unit

(** [fold_left f acc v] folds over the elements in order. *)
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** [map f v] is a fresh vector with [f] applied to every element. *)
val map : ('a -> 'b) -> 'a t -> 'b t

(** [exists p v] tests whether some element satisfies [p]. *)
val exists : ('a -> bool) -> 'a t -> bool

(** [sort cmp v] sorts [v] in place (not stable). *)
val sort : ('a -> 'a -> int) -> 'a t -> unit

(** [stable_sort cmp v] sorts [v] in place, preserving the relative
    order of equal elements. *)
val stable_sort : ('a -> 'a -> int) -> 'a t -> unit

(** [append dst src] pushes all elements of [src] onto [dst]. *)
val append : 'a t -> 'a t -> unit
