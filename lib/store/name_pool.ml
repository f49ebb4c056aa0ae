type t = {
  by_name : (string, int) Hashtbl.t;
  by_id : string Standoff_util.Vec.t;
}

(* Starts small: each constructed element is a document with a pool of
   its own, usually holding one or two names; the table grows for large
   documents. *)
let create () =
  { by_name = Hashtbl.create 8; by_id = Standoff_util.Vec.create () }

let intern pool s =
  match Hashtbl.find_opt pool.by_name s with
  | Some id -> id
  | None ->
      let id = Standoff_util.Vec.length pool.by_id in
      Hashtbl.add pool.by_name s id;
      Standoff_util.Vec.push pool.by_id s;
      id

let find pool s = Hashtbl.find_opt pool.by_name s

let name pool id =
  if id < 0 || id >= Standoff_util.Vec.length pool.by_id then
    invalid_arg (Printf.sprintf "Name_pool.name: unknown id %d" id);
  Standoff_util.Vec.get pool.by_id id

let count pool = Standoff_util.Vec.length pool.by_id
