let lower_bound ~cmp a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp a.(mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound ~cmp a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp a.(mid) x <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let lower_bound_int a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem_sorted_int a x =
  let i = lower_bound_int a x in
  i < Array.length a && a.(i) = x
