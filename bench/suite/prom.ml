(* A small parser for the Prometheus text exposition the server serves
   on GET /metrics, and the window arithmetic on top of it: counters,
   histogram sums and histogram counts are diffed between a scrape
   taken before a measurement window and one taken after it. *)

type sample = {
  name : string;
  labels : (string * string) list;
  value : float;
}

type t = sample list

exception Parse_error of string

(* [name{k="v",...} value] or [name value]; comment lines skipped. *)
let parse_line line =
  let n = String.length line in
  let name_end =
    let i = ref 0 in
    while !i < n && line.[!i] <> '{' && line.[!i] <> ' ' do
      incr i
    done;
    !i
  in
  let name = String.sub line 0 name_end in
  let labels, rest =
    if name_end < n && line.[name_end] = '{' then begin
      let labels = ref [] in
      let pos = ref (name_end + 1) in
      while !pos < n && line.[!pos] <> '}' do
        let eq =
          match String.index_from_opt line !pos '=' with
          | Some i -> i
          | None -> raise (Parse_error line)
        in
        let key = String.sub line !pos (eq - !pos) in
        if eq + 1 >= n || line.[eq + 1] <> '"' then raise (Parse_error line);
        let b = Buffer.create 8 in
        let p = ref (eq + 2) in
        while !p < n && line.[!p] <> '"' do
          if line.[!p] = '\\' && !p + 1 < n then begin
            (match line.[!p + 1] with
            | 'n' -> Buffer.add_char b '\n'
            | c -> Buffer.add_char b c);
            p := !p + 2
          end
          else begin
            Buffer.add_char b line.[!p];
            incr p
          end
        done;
        if !p >= n then raise (Parse_error line);
        labels := (key, Buffer.contents b) :: !labels;
        pos := !p + 1;
        if !pos < n && line.[!pos] = ',' then incr pos
      done;
      if !pos >= n then raise (Parse_error line);
      (List.rev !labels, String.sub line (!pos + 1) (n - !pos - 1))
    end
    else ([], String.sub line name_end (n - name_end))
  in
  let value =
    match String.trim rest with
    | "+Inf" -> Float.infinity
    | "-Inf" -> Float.neg_infinity
    | v -> (
        match float_of_string_opt v with
        | Some f -> f
        | None -> raise (Parse_error line))
  in
  { name; labels; value }

let parse text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None else Some (parse_line line))

(* Sum of every instance of [name] whose labels include all of
   [where]; 0 when the metric is absent. *)
let sum ?(where = []) (t : t) name =
  List.fold_left
    (fun acc s ->
      if
        s.name = name
        && List.for_all (fun (k, v) -> List.assoc_opt k s.labels = Some v) where
      then acc +. s.value
      else acc)
    0.0 t

(* Growth of [name] across a measurement window, given the (before,
   after) pair of scrapes around it. *)
let delta ?where (before, after) name = sum ?where after name -. sum ?where before name

(* Mean observation of histogram [name] inside the window, in the
   histogram's unit; 0 when nothing was observed. *)
let window_mean window name =
  let count = delta window (name ^ "_count") in
  if count <= 0.0 then 0.0 else delta window (name ^ "_sum") /. count
