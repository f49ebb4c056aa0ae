(** Atomization, the effective boolean value, general comparisons and
    arithmetic — the XQuery value semantics the evaluator delegates
    to.

    One deliberate deviation from the W3C rules: untyped values that
    look like integers are compared as 64-bit integers rather than
    doubles, so region positions up to 2{^63}-1 (file offsets into
    large disk images) never lose precision.  The paper's
    implementation makes the same assumption (§2). *)

type t =
  | A_int of int64
  | A_float of float
  | A_str of string
  | A_bool of bool
  | A_untyped of string  (** node content awaiting type coercion *)

(** [atomize coll item] is the typed value of an item; nodes atomize to
    their string value as untyped data. *)
val atomize :
  Standoff_store.Collection.t -> Standoff_relalg.Item.t -> t

(** [string_value coll item] is the XPath string value of any item. *)
val string_value :
  Standoff_store.Collection.t -> Standoff_relalg.Item.t -> string

(** [to_item a] re-embeds an atomic as an item. *)
val to_item : t -> Standoff_relalg.Item.t

(** Comparison operators of general comparisons. *)
type cmp =
  | Ceq
  | Cne
  | Clt
  | Cle
  | Cgt
  | Cge

(** [compare_atomics cmp a b] applies the XQuery general-comparison
    conversion rules (untyped vs. numeric casts the untyped side,
    untyped vs. string compares as strings, numeric promotion).
    @raise Err.Error on incomparable types or uncastable values. *)
val compare_atomics : cmp -> t -> t -> bool

(** Arithmetic operators. *)
type arith =
  | Add
  | Sub
  | Mul
  | Div
  | Idiv
  | Mod

(** [arithmetic op a b] — integer arithmetic stays integral except for
    [Div], which promotes to float when inexact.
    @raise Err.Error on non-numeric operands or division by zero for
    [Idiv]/[Mod]. *)
val arithmetic : arith -> t -> t -> t

(** [negate a] is unary minus. *)
val negate : t -> t

(** [effective_boolean_value coll items] — empty is false; a sequence
    whose first item is a node is true; a singleton boolean, number or
    string follows the usual rules.
    @raise Err.Error on other sequences. *)
val effective_boolean_value :
  Standoff_store.Collection.t -> Standoff_relalg.Item.t list -> bool

(** [effective_boolean_value_item item] is the effective boolean value
    of the one-item sequence [item]. *)
val effective_boolean_value_item : Standoff_relalg.Item.t -> bool

(** [to_number a] coerces to a float ({!A_int} passes through losslessly
    when re-embedded).
    @raise Err.Error when not castable. *)
val to_number : t -> t

(** [atomic_to_string a] is the canonical lexical form. *)
val atomic_to_string : t -> string

(** [order_compare a b] is a total three-way comparison for [order by]
    sorting: numeric when both sides are (or cast to) numbers,
    lexicographic on canonical forms otherwise. *)
val order_compare : t -> t -> int
