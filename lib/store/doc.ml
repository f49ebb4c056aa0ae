module Vec = Standoff_util.Vec
module Dom = Standoff_xml.Dom

type kind =
  | Document
  | Element
  | Text
  | Comment
  | Pi

(* Strong-DataGuide summary: one node per distinct root-to-node label
   path, each holding the sorted pres of the elements on that path.
   The type lives here (rather than in [Dataguide], which owns the
   construction and lookup algorithms) so the per-document cache slot
   below can hold it without a module cycle. *)
type guide_node = {
  g_name : int;  (** interned element name; [-1] on the document root *)
  mutable g_pres : int array;
      (** sorted pres of the elements reached by this label path *)
  g_children : (int, guide_node) Hashtbl.t;  (** keyed on interned name *)
}

type guide = {
  guide_root : guide_node;  (** stands for the document node *)
  guide_paths : int;  (** distinct label paths = guide-tree nodes - 1 *)
  mutable guide_generation : int;
      (** the catalogue generation the guide is valid for; a mismatch
          at probe time means rebuild *)
}

type t = {
  doc_name : string;
  doc_uid : int;
  kind : kind array;
  size : int array;
  level : int array;
  parent : int array;
  name : int array;
  value : string array;
  attr_owner : int array;
  attr_name : int array;
  attr_value : string array;
  attr_first : int array;
  names : Name_pool.t;
  index_lock : Mutex.t;
  mutable elem_index : (int, int array) Hashtbl.t option;
  mutable dataguide : guide option;
}

(* Process-unique document identities.  Names are unique only within
   one collection: two documents of the same name are still different
   documents, and anything keyed on the identity (the engine's result
   cache) must see them as such. *)
let uid_counter = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add uid_counter 1

(* Documents are built in pre order, column by column: a node is
   appended when it opens, and an element's size is known when it
   closes.  [open_] holds the pres of the open elements, the document
   node at the bottom; its depth is the next node's level. *)
type builder = {
  mutable b_names : Name_pool.t;
  b_kind : kind Vec.t;
  b_size : int Vec.t;
  b_level : int Vec.t;
  b_parent : int Vec.t;
  b_name : int Vec.t;
  b_value : string Vec.t;
  b_attr_owner : int Vec.t;
  b_attr_name : int Vec.t;
  b_attr_value : string Vec.t;
  open_ : int Vec.t;
}

let alloc b k nm v =
  let pre = Vec.length b.b_kind in
  let depth = Vec.length b.open_ in
  Vec.push b.b_kind k;
  Vec.push b.b_size 0;
  Vec.push b.b_level depth;
  Vec.push b.b_parent (if depth = 0 then -1 else Vec.last b.open_);
  Vec.push b.b_name nm;
  Vec.push b.b_value v;
  pre

let start b = Vec.push b.open_ (alloc b Document (-1) "")

let builder () =
  let b =
    {
      b_names = Name_pool.create ();
      b_kind = Vec.create ();
      b_size = Vec.create ();
      b_level = Vec.create ();
      b_parent = Vec.create ();
      b_name = Vec.create ();
      b_value = Vec.create ();
      b_attr_owner = Vec.create ();
      b_attr_name = Vec.create ();
      b_attr_value = Vec.create ();
      open_ = Vec.create ();
    }
  in
  start b;
  b

let open_element b tag =
  Vec.push b.open_ (alloc b Element (Name_pool.intern b.b_names tag) "")

let add_attribute b name value =
  Vec.push b.b_attr_owner (Vec.last b.open_);
  Vec.push b.b_attr_name (Name_pool.intern b.b_names name);
  Vec.push b.b_attr_value value

let add_text b s = ignore (alloc b Text (-1) s)

let close b pre = Vec.set b.b_size pre (Vec.length b.b_kind - pre - 1)
let close_element b = close b (Vec.pop b.open_)

(* The builder starts over after each document: the new document takes
   the name pool, and the column vectors are cleared for reuse. *)
let finish b ~name:doc_name =
  if doc_name = "" then invalid_arg "Doc: empty document name";
  close b 0;
  let n = Vec.length b.b_kind in
  let attr_owner = Vec.to_array b.b_attr_owner in
  let attr_first = Array.make (n + 1) 0 in
  (* Attributes are added right after their owner opens, so the owner
     column is increasing and one counting pass yields the per-node
     slices. *)
  Array.iter (fun owner -> attr_first.(owner + 1) <- attr_first.(owner + 1) + 1) attr_owner;
  for i = 1 to n do
    attr_first.(i) <- attr_first.(i) + attr_first.(i - 1)
  done;
  let d =
    {
      doc_name;
      doc_uid = fresh_uid ();
      kind = Vec.to_array b.b_kind;
      size = Vec.to_array b.b_size;
      level = Vec.to_array b.b_level;
      parent = Vec.to_array b.b_parent;
      name = Vec.to_array b.b_name;
      value = Vec.to_array b.b_value;
      attr_owner;
      attr_name = Vec.to_array b.b_attr_name;
      attr_value = Vec.to_array b.b_attr_value;
      attr_first;
      names = b.b_names;
      index_lock = Mutex.create ();
      elem_index = None;
      dataguide = None;
    }
  in
  b.b_names <- Name_pool.create ();
  Vec.clear b.b_kind;
  List.iter Vec.clear
    [ b.b_size; b.b_level; b.b_parent; b.b_name; b.b_attr_owner; b.b_attr_name;
      b.open_ ];
  Vec.clear b.b_value;
  Vec.clear b.b_attr_value;
  start b;
  d

let of_dom ~name:doc_name (dom : Dom.document) =
  let b = builder () in
  let rec shred_node = function
    | Dom.Text s -> add_text b s
    | Dom.Comment s -> ignore (alloc b Comment (-1) s)
    | Dom.Pi (target, data) ->
        ignore (alloc b Pi (Name_pool.intern b.b_names target) data)
    | Dom.Element el ->
        open_element b el.tag;
        List.iter
          (fun { Dom.attr_name; attr_value } -> add_attribute b attr_name attr_value)
          el.attrs;
        List.iter shred_node el.children;
        close_element b
  in
  (* Prolog/epilog comments and PIs become children of the document
     node, surrounding the root element, like in the XDM. *)
  List.iter shred_node dom.Dom.prolog;
  shred_node (Dom.Element dom.Dom.root);
  List.iter shred_node dom.Dom.epilog;
  finish b ~name:doc_name

let parse ~name s = of_dom ~name (Standoff_xml.Parser.parse_string s)

(* Forward declaration resolved below; of_columns validates with it. *)
let check_invariants_ref = ref (fun (_ : t) -> ())

let of_columns ~doc_name ~names ~kind ~size ~level ~parent ~name ~value
    ~attr_owner ~attr_name ~attr_value =
  let n = Array.length kind in
  let columns_equal_length =
    Array.length size = n && Array.length level = n
    && Array.length parent = n && Array.length name = n
    && Array.length value = n
  in
  if not columns_equal_length then failwith "Doc.of_columns: column length mismatch";
  let m = Array.length attr_owner in
  if Array.length attr_name <> m || Array.length attr_value <> m then
    failwith "Doc.of_columns: attribute column length mismatch";
  let pool = Name_pool.create () in
  Array.iter (fun s -> ignore (Name_pool.intern pool s)) names;
  let check_name_id what id =
    if id < -1 || id >= Name_pool.count pool then
      failwith (Printf.sprintf "Doc.of_columns: bad %s id %d" what id)
  in
  Array.iter (check_name_id "name") name;
  Array.iter
    (fun id ->
      check_name_id "attribute name" id;
      if id < 0 then failwith "Doc.of_columns: attribute without name")
    attr_name;
  let attr_first = Array.make (n + 1) 0 in
  Array.iter
    (fun owner ->
      if owner < 0 || owner >= n then failwith "Doc.of_columns: bad attribute owner";
      attr_first.(owner + 1) <- attr_first.(owner + 1) + 1)
    attr_owner;
  for i = 1 to n do
    attr_first.(i) <- attr_first.(i) + attr_first.(i - 1)
  done;
  let d =
    {
      doc_name;
      doc_uid = fresh_uid ();
      kind;
      size;
      level;
      parent;
      name;
      value;
      attr_owner;
      attr_name;
      attr_value;
      attr_first;
      names = pool;
      index_lock = Mutex.create ();
      elem_index = None;
      dataguide = None;
    }
  in
  !check_invariants_ref d;
  d

let node_count d = Array.length d.kind
let attribute_count d = Array.length d.attr_owner

let root d =
  let n = node_count d in
  let rec find pre =
    if pre >= n then invalid_arg "Doc.root: document has no root element"
    else if d.kind.(pre) = Element && d.parent.(pre) = 0 then pre
    else find (pre + 1)
  in
  find 1

let kind_of d pre = d.kind.(pre)

let name_of d pre =
  let id = d.name.(pre) in
  if id < 0 then None else Some (Name_pool.name d.names id)

let name_id d s = Option.value ~default:(-1) (Name_pool.find d.names s)
let name_of_id d id = Name_pool.name d.names id

let parent_of d pre =
  let p = d.parent.(pre) in
  if p < 0 then None else Some p

let subtree_size d pre = d.size.(pre)

let is_ancestor d a b = a < b && b <= a + d.size.(a)

let iter_children d pre f =
  let stop = pre + d.size.(pre) in
  let c = ref (pre + 1) in
  while !c <= stop do
    f !c;
    c := !c + d.size.(!c) + 1
  done

let children d pre =
  let acc = ref [] in
  iter_children d pre (fun c -> acc := c :: !acc);
  List.rev !acc

let attributes d pre =
  let lo = d.attr_first.(pre) and hi = d.attr_first.(pre + 1) in
  let rec collect i acc =
    if i < lo then acc
    else
      collect (i - 1)
        ((Name_pool.name d.names d.attr_name.(i), d.attr_value.(i)) :: acc)
  in
  collect (hi - 1) []

let attribute d pre name =
  match Name_pool.find d.names name with
  | None -> None
  | Some nid ->
      let lo = d.attr_first.(pre) and hi = d.attr_first.(pre + 1) in
      let rec scan i =
        if i >= hi then None
        else if d.attr_name.(i) = nid then Some d.attr_value.(i)
        else scan (i + 1)
      in
      scan lo

let string_value d pre =
  match d.kind.(pre) with
  | Text | Comment | Pi -> d.value.(pre)
  | Document | Element ->
      let buf = Buffer.create 64 in
      for p = pre + 1 to pre + d.size.(pre) do
        if d.kind.(p) = Text then Buffer.add_string buf d.value.(p)
      done;
      Buffer.contents buf

(* Lazy index builds serialise on the document's own lock: builds on
   distinct documents proceed concurrently (a process-wide lock here
   once serialised every first-touch index build in the collection),
   while the locked [<- Some idx] publication keeps concurrent domains
   from ever observing a partially built table on the same document. *)
let with_index_lock d f =
  Mutex.lock d.index_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock d.index_lock) f

let dataguide_cache d = d.dataguide
let publish_dataguide d g = d.dataguide <- Some g

let build_elem_index d =
  match d.elem_index with
  | Some idx -> idx
  | None ->
      Mutex.lock d.index_lock;
      let idx =
        match d.elem_index with
        | Some idx -> idx (* another domain built it meanwhile *)
        | None ->
            let tmp : (int, int Vec.t) Hashtbl.t = Hashtbl.create 64 in
            Array.iteri
              (fun pre k ->
                if k = Element then begin
                  let nid = d.name.(pre) in
                  let v =
                    match Hashtbl.find_opt tmp nid with
                    | Some v -> v
                    | None ->
                        let v = Vec.create () in
                        Hashtbl.add tmp nid v;
                        v
                  in
                  Vec.push v pre
                end)
              d.kind;
            let idx = Hashtbl.create (Hashtbl.length tmp) in
            Hashtbl.iter
              (fun nid v -> Hashtbl.add idx nid (Vec.to_array v))
              tmp;
            d.elem_index <- Some idx;
            idx
      in
      Mutex.unlock d.index_lock;
      idx

let elements_named d name =
  match Name_pool.find d.names name with
  | None -> [||]
  | Some nid -> (
      match Hashtbl.find_opt (build_elem_index d) nid with
      | Some arr -> arr
      | None -> [||])

let all_elements d =
  let v = Vec.create () in
  Array.iteri (fun pre k -> if k = Element then Vec.push v pre) d.kind;
  Vec.to_array v

let rec to_dom d pre =
  match d.kind.(pre) with
  | Text -> Dom.Text d.value.(pre)
  | Comment -> Dom.Comment d.value.(pre)
  | Pi -> Dom.Pi (Name_pool.name d.names d.name.(pre), d.value.(pre))
  | Document -> to_dom d (root d)
  | Element ->
      let attrs =
        List.map
          (fun (attr_name, attr_value) -> { Dom.attr_name; attr_value })
          (attributes d pre)
      in
      let kids = List.map (to_dom d) (children d pre) in
      Dom.Element
        { Dom.tag = Name_pool.name d.names d.name.(pre); attrs; children = kids }

let copy_node b d pre =
  let pre = if d.kind.(pre) = Document then root d else pre in
  let base = Vec.length b.b_kind in
  let shift = Vec.length b.open_ - d.level.(pre) in
  let intern id = Name_pool.intern b.b_names (Name_pool.name d.names id) in
  for p = pre to pre + d.size.(pre) do
    Vec.push b.b_kind d.kind.(p);
    Vec.push b.b_size d.size.(p);
    Vec.push b.b_level (d.level.(p) + shift);
    Vec.push b.b_parent
      (if p = pre then Vec.last b.open_ else d.parent.(p) - pre + base);
    Vec.push b.b_name (if d.name.(p) < 0 then -1 else intern d.name.(p));
    Vec.push b.b_value d.value.(p);
    for i = d.attr_first.(p) to d.attr_first.(p + 1) - 1 do
      Vec.push b.b_attr_owner (p - pre + base);
      Vec.push b.b_attr_name (intern d.attr_name.(i));
      Vec.push b.b_attr_value d.attr_value.(i)
    done
  done

let pp_node fmt (d, pre) =
  match d.kind.(pre) with
  | Document -> Format.fprintf fmt "document(%s)" d.doc_name
  | Text -> Format.fprintf fmt "text(%S) (pre %d)" d.value.(pre) pre
  | Comment -> Format.fprintf fmt "comment (pre %d)" pre
  | Pi -> Format.fprintf fmt "pi(%s) (pre %d)" (Name_pool.name d.names d.name.(pre)) pre
  | Element ->
      let attrs = attributes d pre in
      Format.fprintf fmt "<%s%a> (pre %d)"
        (Name_pool.name d.names d.name.(pre))
        (fun fmt attrs ->
          List.iter (fun (n, v) -> Format.fprintf fmt " %s='%s'" n v) attrs)
        attrs pre

let check_invariants d =
  let n = node_count d in
  let fail fmt = Printf.ksprintf failwith fmt in
  if n = 0 then fail "empty document";
  if d.kind.(0) <> Document then fail "pre 0 is not the document node";
  if d.size.(0) <> n - 1 then fail "document size %d <> %d" d.size.(0) (n - 1);
  for pre = 0 to n - 1 do
    let sz = d.size.(pre) in
    if sz < 0 || pre + sz >= n then fail "size out of range at pre %d" pre;
    (match d.kind.(pre) with
    | Text | Comment | Pi ->
        if sz <> 0 then fail "leaf kind with descendants at pre %d" pre
    | Document | Element -> ());
    let p = d.parent.(pre) in
    if pre = 0 then begin
      if p <> -1 then fail "document node has a parent"
    end
    else begin
      if p < 0 || p >= pre then fail "bad parent %d at pre %d" p pre;
      if not (is_ancestor d p pre) then
        fail "parent %d does not contain pre %d" p pre;
      if d.level.(pre) <> d.level.(p) + 1 then fail "bad level at pre %d" pre;
      (* The parent must be the closest enclosing node. *)
      if pre + sz > p + d.size.(p) then
        fail "subtree of %d escapes its parent %d" pre p
    end
  done;
  (* Attribute table is clustered on owner. *)
  let m = attribute_count d in
  for i = 1 to m - 1 do
    if d.attr_owner.(i - 1) > d.attr_owner.(i) then
      fail "attribute table not clustered at row %d" i
  done;
  Array.iter
    (fun owner ->
      if d.kind.(owner) <> Element then fail "attribute on non-element %d" owner)
    d.attr_owner;
  for pre = 0 to n - 1 do
    let lo = d.attr_first.(pre) and hi = d.attr_first.(pre + 1) in
    if lo > hi || lo < 0 || hi > m then fail "bad attr_first at pre %d" pre;
    for i = lo to hi - 1 do
      if d.attr_owner.(i) <> pre then fail "attr slice mismatch at pre %d" pre
    done
  done

let () = check_invariants_ref := check_invariants
