module A1 = Bigarray.Array1

let digit_bits = 8
let buckets = 1 lsl digit_bits

(* Stable counting passes over [a], one per digit shift in [shifts].
   [digits_of sh s digits] writes the digit at bit [sh] of each element
   of [s] into [digits]: one specialised loop per pass, not a closure
   call per element. *)
let passes ~shifts ~digits_of a =
  let n = Array.length a in
  let count = Array.make buckets 0 and digits = Array.make n 0 in
  let src = ref a and dst = ref (Array.make n 0) in
  List.iter
    (fun sh ->
      let s = !src and d = !dst in
      digits_of sh s digits;
      Array.fill count 0 buckets 0;
      for i = 0 to n - 1 do
        let b = Array.unsafe_get digits i in
        count.(b) <- count.(b) + 1
      done;
      let pos = ref 0 in
      for b = 0 to buckets - 1 do
        let c = count.(b) in
        count.(b) <- !pos;
        pos := !pos + c
      done;
      for i = 0 to n - 1 do
        let b = Array.unsafe_get digits i in
        Array.unsafe_set d count.(b) (Array.unsafe_get s i);
        count.(b) <- count.(b) + 1
      done;
      src := d;
      dst := s)
    shifts;
  if !src != a then Array.blit !src 0 a 0 n

(* The shifts of the digits of a [bits]-wide key on which not all keys
   agree; [varying sh] is the digit at [sh] of the bits that differ
   between some two keys. *)
let shifts_of ~bits ~varying =
  List.filter
    (fun sh -> varying sh <> 0)
    (List.init ((bits + digit_bits - 1) / digit_bits) (fun k -> k * digit_bits))

(* Keys compare as unsigned: flipping the sign bit preserves order. *)
let sort_by_int_keys ~key a =
  let n = Array.length a in
  if n > 1 then begin
    let all = ref (-1) and any = ref 0 in
    for i = 0 to n - 1 do
      let k = key a.(i) lxor min_int in
      all := !all land k;
      any := !any lor k
    done;
    let varying = !all lxor !any in
    passes a
      ~shifts:
        (shifts_of ~bits:Sys.int_size ~varying:(fun sh ->
             (varying lsr sh) land (buckets - 1)))
      ~digits_of:(fun sh s digits ->
        for i = 0 to n - 1 do
          Array.unsafe_set digits i
            (((key (Array.unsafe_get s i) lxor min_int) lsr sh) land (buckets - 1))
        done)
  end

let sort_ints a = sort_by_int_keys ~key:Fun.id a
let sort_by_ints keys perm = sort_by_int_keys ~key:(Array.get keys) perm

let sort_by_int64s (col : (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t)
    ~descending perm =
  let n = Array.length perm in
  if n > 1 then begin
    (* Unsigned, order-preserving keys: the sign bit flipped, and every
       bit when descending. *)
    let mask = if descending then Int64.max_int else Int64.min_int in
    let all = ref (-1L) and any = ref 0L in
    for i = 0 to n - 1 do
      let k = Int64.logxor (A1.unsafe_get col (Array.unsafe_get perm i)) mask in
      all := Int64.logand !all k;
      any := Int64.logor !any k
    done;
    let varying = Int64.logxor !all !any in
    passes perm
      ~shifts:
        (shifts_of ~bits:64 ~varying:(fun sh ->
             Int64.to_int (Int64.shift_right_logical varying sh) land (buckets - 1)))
      ~digits_of:(fun sh s digits ->
        for i = 0 to n - 1 do
          let k = Int64.logxor (A1.unsafe_get col (Array.unsafe_get s i)) mask in
          Array.unsafe_set digits i
            (Int64.to_int (Int64.shift_right_logical k sh) land (buckets - 1))
        done)
  end
