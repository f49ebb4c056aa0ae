type pos = int64

type t = {
  start_ : pos;
  end_ : pos;
}

let make start_ end_ =
  if Int64.compare start_ end_ > 0 then
    invalid_arg
      (Printf.sprintf "Region.make: start %Ld > end %Ld" start_ end_);
  { start_; end_ }

let make_int s e = make (Int64.of_int s) (Int64.of_int e)

let start_pos r = r.start_
let end_pos r = r.end_
let width r = Int64.sub r.end_ r.start_

let contains r1 r2 =
  Int64.compare r1.start_ r2.start_ <= 0
  && Int64.compare r2.end_ r1.end_ <= 0

let overlaps r1 r2 =
  Int64.compare r1.start_ r2.end_ <= 0
  && Int64.compare r1.end_ r2.start_ >= 0

let disjoint r1 r2 = not (overlaps r1 r2)

let precedes r1 r2 = Int64.compare r1.end_ r2.start_ < 0

let intersection r1 r2 =
  if overlaps r1 r2 then
    Some
      {
        start_ = (if Int64.compare r1.start_ r2.start_ >= 0 then r1.start_ else r2.start_);
        end_ = (if Int64.compare r1.end_ r2.end_ <= 0 then r1.end_ else r2.end_);
      }
  else None

let hull r1 r2 =
  {
    start_ = (if Int64.compare r1.start_ r2.start_ <= 0 then r1.start_ else r2.start_);
    end_ = (if Int64.compare r1.end_ r2.end_ >= 0 then r1.end_ else r2.end_);
  }

let compare r1 r2 =
  let c = Int64.compare r1.start_ r2.start_ in
  if c <> 0 then c else Int64.compare r2.end_ r1.end_

let equal r1 r2 = r1.start_ = r2.start_ && r1.end_ = r2.end_

let pp fmt r = Format.fprintf fmt "[%Ld,%Ld]" r.start_ r.end_
let to_string r = Format.asprintf "%a" pp r
