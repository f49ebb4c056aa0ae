module Item = Standoff_relalg.Item
module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection

type t =
  | A_int of int64
  | A_float of float
  | A_str of string
  | A_bool of bool
  | A_untyped of string

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else string_of_float f

let string_value coll = function
  | Item.Node n ->
      Doc.string_value (Collection.doc coll n.Collection.doc_id) n.Collection.pre
  | Item.Attribute (_, _, v) -> v
  | Item.Bool b -> if b then "true" else "false"
  | Item.Int i -> Int64.to_string i
  | Item.Float f -> float_to_string f
  | Item.Str s -> s

let atomize coll = function
  | Item.Node _ as n -> A_untyped (string_value coll n)
  | Item.Attribute (_, _, v) -> A_untyped v
  | Item.Bool b -> A_bool b
  | Item.Int i -> A_int i
  | Item.Float f -> A_float f
  | Item.Str s -> A_str s

let to_item = function
  | A_int i -> Item.Int i
  | A_float f -> Item.Float f
  | A_str s | A_untyped s -> Item.Str s
  | A_bool b -> Item.Bool b

let atomic_to_string = function
  | A_int i -> Int64.to_string i
  | A_float f -> float_to_string f
  | A_str s | A_untyped s -> s
  | A_bool b -> if b then "true" else "false"

(* Integral strings stay 64-bit exact; everything else falls back to
   float (see mli note). *)
let untyped_to_number_opt s =
  let s = String.trim s in
  match Int64.of_string_opt s with
  | Some i -> Some (A_int i)
  | None -> Option.map (fun f -> A_float f) (float_of_string_opt s)

let untyped_to_number s =
  match untyped_to_number_opt s with
  | Some a -> a
  | None -> Err.raisef "cannot cast %S to a number" s

let to_number = function
  | A_int _ as a -> a
  | A_float _ as a -> a
  | (A_str s | A_untyped s) -> untyped_to_number s
  | A_bool b -> A_int (if b then 1L else 0L)

(* A proper total order is required (Array.sort!): numeric-convertible
   values form one class ordered numerically and sort before the string
   class, which is ordered lexicographically.  Comparing a number with
   a string via its lexical form instead would break transitivity
   (708 < "9" < "96.4" < 708). *)
let order_compare a b =
  let as_number = function
    | (A_int _ | A_float _) as n -> Some n
    | A_untyped s -> untyped_to_number_opt s
    | A_bool b -> Some (A_int (if b then 1L else 0L))
    | A_str _ -> None
  in
  match (as_number a, as_number b) with
  | Some (A_int x), Some (A_int y) -> Int64.compare x y
  | Some x, Some y ->
      let f = function A_int i -> Int64.to_float i | A_float f -> f | _ -> 0.0 in
      Float.compare (f x) (f y)
  | Some _, None -> -1
  | None, Some _ -> 1
  | None, None -> String.compare (atomic_to_string a) (atomic_to_string b)

type cmp =
  | Ceq
  | Cne
  | Clt
  | Cle
  | Cgt
  | Cge

let apply_cmp cmp c =
  match cmp with
  | Ceq -> c = 0
  | Cne -> c <> 0
  | Clt -> c < 0
  | Cle -> c <= 0
  | Cgt -> c > 0
  | Cge -> c >= 0

let rec compare_atomics cmp a b =
  match (a, b) with
  | A_int x, A_int y -> apply_cmp cmp (Int64.compare x y)
  | A_float x, A_float y -> apply_cmp cmp (Float.compare x y)
  | A_int x, A_float y -> apply_cmp cmp (Float.compare (Int64.to_float x) y)
  | A_float x, A_int y -> apply_cmp cmp (Float.compare x (Int64.to_float y))
  | A_str x, A_str y -> apply_cmp cmp (String.compare x y)
  | A_bool x, A_bool y -> apply_cmp cmp (Bool.compare x y)
  (* Untyped data takes the type of the other operand.  Between two
     untyped values, equality is string equality (XQuery), but the
     ordering operators compare numerically when both sides parse as
     numbers — the XPath 1.0 rule, and what the paper's Figure 2/3
     UDFs ("@start >= @start") rely on. *)
  | A_untyped x, A_untyped y -> (
      match cmp with
      | Ceq | Cne -> apply_cmp cmp (String.compare x y)
      | Clt | Cle | Cgt | Cge -> (
          match (untyped_to_number_opt x, untyped_to_number_opt y) with
          | Some nx, Some ny -> compare_atomics cmp nx ny
          | _ -> apply_cmp cmp (String.compare x y)))
  | A_untyped x, (A_int _ | A_float _) ->
      compare_atomics cmp (untyped_to_number x) b
  | (A_int _ | A_float _), A_untyped y ->
      compare_atomics cmp a (untyped_to_number y)
  | A_untyped x, A_str y | A_str x, A_untyped y ->
      apply_cmp cmp (String.compare x y)
  | A_untyped x, A_bool y ->
      apply_cmp cmp (Bool.compare (untyped_to_bool x) y)
  | A_bool x, A_untyped y ->
      apply_cmp cmp (Bool.compare x (untyped_to_bool y))
  | (A_str _ | A_bool _ | A_int _ | A_float _), _ ->
      Err.raisef "cannot compare %s with %s" (atomic_to_string a)
        (atomic_to_string b)

and untyped_to_bool s =
  match String.trim s with
  | "true" | "1" -> true
  | "false" | "0" -> false
  | s -> Err.raisef "cannot cast %S to xs:boolean" s

type arith =
  | Add
  | Sub
  | Mul
  | Div
  | Idiv
  | Mod

let arithmetic op a b =
  let a = to_number a and b = to_number b in
  match (a, b) with
  | A_int x, A_int y -> (
      match op with
      | Add -> A_int (Int64.add x y)
      | Sub -> A_int (Int64.sub x y)
      | Mul -> A_int (Int64.mul x y)
      | Div ->
          if y <> 0L && Int64.rem x y = 0L then A_int (Int64.div x y)
          else if y = 0L then Err.raisef "division by zero"
          else A_float (Int64.to_float x /. Int64.to_float y)
      | Idiv ->
          if y = 0L then Err.raisef "integer division by zero"
          else A_int (Int64.div x y)
      | Mod ->
          if y = 0L then Err.raisef "modulo by zero" else A_int (Int64.rem x y))
  | _ ->
      let x = match a with A_int i -> Int64.to_float i | A_float f -> f | _ -> assert false in
      let y = match b with A_int i -> Int64.to_float i | A_float f -> f | _ -> assert false in
      (match op with
      | Add -> A_float (x +. y)
      | Sub -> A_float (x -. y)
      | Mul -> A_float (x *. y)
      | Div -> A_float (x /. y)
      | Idiv ->
          if y = 0.0 then Err.raisef "integer division by zero"
          else A_int (Int64.of_float (Float.trunc (x /. y)))
      | Mod -> A_float (Float.rem x y))

let negate a =
  match to_number a with
  | A_int i -> A_int (Int64.neg i)
  | A_float f -> A_float (-.f)
  | _ -> assert false

let effective_boolean_value_item = function
  | Item.Node _ | Item.Attribute _ -> true
  | Item.Bool b -> b
  | Item.Int i -> i <> 0L
  | Item.Float f -> not (f = 0.0 || Float.is_nan f)
  | Item.Str s -> String.length s > 0

let effective_boolean_value coll items =
  match items with
  | [] -> false
  | [ item ] -> effective_boolean_value_item item
  | (Item.Node _ | Item.Attribute _) :: _ -> true
  | items ->
      Err.raisef
        "effective boolean value undefined for a %d-item atomic sequence (%s)"
        (List.length items)
        (String.concat ", " (List.map (string_value coll) items))
