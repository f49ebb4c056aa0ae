(* Order statistics over float samples. *)

(* Nearest-rank percentile of an ascending array; [nan] when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of_list l) 50.0

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* [ratio a b] is [a /. b], or 0 when there is nothing to divide by:
   a per-read figure on a window without reads reads as 0. *)
let ratio a b = if b <= 0.0 then 0.0 else a /. b
