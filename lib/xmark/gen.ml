module Dom = Standoff_xml.Dom
module Prng = Standoff_util.Prng

type params = {
  scale : float;
  seed : int64;
}

type counts = {
  items : int;
  persons : int;
  open_auctions : int;
  closed_auctions : int;
  categories : int;
}

(* XMark cardinalities at scale factor 1. *)
let counts_for scale =
  let n base = max 1 (int_of_float (Float.round (float_of_int base *. scale))) in
  {
    items = n 21750;
    persons = n 25500;
    open_auctions = n 12000;
    closed_auctions = n 9750;
    categories = n 1000;
  }

let el = Dom.element
let text s = Dom.Text s

let sentence rng ~min_words ~max_words =
  let n = Prng.int_in_range rng min_words max_words in
  let buf = Buffer.create (n * 8) in
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf (Prng.choice rng Vocab.words)
  done;
  Buffer.contents buf

let person_name rng =
  Prng.choice rng Vocab.first_names ^ " " ^ Prng.choice rng Vocab.last_names

let date rng =
  Printf.sprintf "%02d/%02d/%4d"
    (Prng.int_in_range rng 1 12)
    (Prng.int_in_range rng 1 28)
    (Prng.int_in_range rng 1998 2001)

let time rng =
  Printf.sprintf "%02d:%02d:%02d"
    (Prng.int_in_range rng 0 23)
    (Prng.int_in_range rng 0 59)
    (Prng.int_in_range rng 0 59)

let money rng hi = Printf.sprintf "%d.%02d" (Prng.int_in_range rng 1 hi) (Prng.int rng 100)

(* <text> mixes words with occasional <keyword>/<bold> children, like
   xmlgen's description bodies. *)
let rich_text rng =
  let parts = ref [] in
  let n = Prng.int_in_range rng 1 3 in
  for _ = 1 to n do
    parts := text (sentence rng ~min_words:6 ~max_words:24) :: !parts;
    if Prng.int rng 3 = 0 then
      parts :=
        el
          (if Prng.bool rng then "keyword" else "bold")
          [ text (sentence rng ~min_words:1 ~max_words:3) ]
        :: !parts
  done;
  el "text" (List.rev !parts)

let description rng = el "description" [ rich_text rng ]

let mail rng =
  el "mail"
    [
      el "from" [ text (person_name rng) ];
      el "to" [ text (person_name rng) ];
      el "date" [ text (date rng) ];
      rich_text rng;
    ]

let item rng c ~id =
  let incategories =
    List.init
      (Prng.int_in_range rng 1 3)
      (fun _ ->
        el "incategory"
          ~attrs:[ ("category", Printf.sprintf "category%d" (Prng.int rng c.categories)) ]
          [])
  in
  let mailbox =
    el "mailbox" (List.init (Prng.int rng 3) (fun _ -> mail rng))
  in
  el "item"
    ~attrs:[ ("id", Printf.sprintf "item%d" id); ("featured", if Prng.int rng 10 = 0 then "yes" else "no") ]
    ([
       el "location" [ text (Prng.choice rng Vocab.countries) ];
       el "quantity" [ text (string_of_int (Prng.int_in_range rng 1 5)) ];
       el "name" [ text (sentence rng ~min_words:2 ~max_words:4) ];
       el "payment" [ text "Creditcard" ];
       description rng;
       el "shipping" [ text "Will ship internationally" ];
     ]
    @ incategories
    @ [ mailbox ])

let category rng ~id =
  el "category"
    ~attrs:[ ("id", Printf.sprintf "category%d" id) ]
    [ el "name" [ text (sentence rng ~min_words:1 ~max_words:3) ]; description rng ]

let person rng c ~id =
  let optional p node = if Prng.int rng 100 < p then [ node () ] else [] in
  el "person"
    ~attrs:[ ("id", Printf.sprintf "person%d" id) ]
    ([
       el "name" [ text (person_name rng) ];
       el "emailaddress"
         [ text (Printf.sprintf "mailto:person%d@auction.example" id) ];
     ]
    @ optional 60 (fun () ->
          el "phone" [ text (Printf.sprintf "+31 %07d" (Prng.int rng 10000000)) ])
    @ optional 70 (fun () ->
          el "address"
            [
              el "street" [ text (Printf.sprintf "%d %s St" (Prng.int_in_range rng 1 99) (Prng.choice rng Vocab.words)) ];
              el "city" [ text (Prng.choice rng Vocab.cities) ];
              el "country" [ text (Prng.choice rng Vocab.countries) ];
              el "zipcode" [ text (string_of_int (Prng.int rng 100000)) ];
            ])
    @ optional 50 (fun () ->
          el "homepage"
            [ text (Printf.sprintf "http://www.example.org/~person%d" id) ])
    @ optional 60 (fun () ->
          el "creditcard"
            [
              text
                (Printf.sprintf "%04d %04d %04d %04d" (Prng.int rng 10000)
                   (Prng.int rng 10000) (Prng.int rng 10000) (Prng.int rng 10000));
            ])
    @ optional 70 (fun () ->
          el "profile"
            ~attrs:[ ("income", money rng 99999) ]
            (List.init
               (Prng.int rng 3)
               (fun _ ->
                 el "interest"
                   ~attrs:
                     [ ("category", Printf.sprintf "category%d" (Prng.int rng c.categories)) ]
                   [])
            @ [
                el "education" [ text (Prng.choice rng Vocab.education_levels) ];
                el "gender" [ text (if Prng.bool rng then "male" else "female") ];
                el "business" [ text (if Prng.bool rng then "Yes" else "No") ];
                el "age" [ text (string_of_int (Prng.int_in_range rng 18 90)) ];
              ]))
    @ optional 40 (fun () ->
          el "watches"
            (List.init
               (Prng.int_in_range rng 1 3)
               (fun _ ->
                 el "watch"
                   ~attrs:
                     [
                       ( "open_auction",
                         Printf.sprintf "open_auction%d"
                           (Prng.int rng c.open_auctions) );
                     ]
                   []))))

let bidder rng c =
  el "bidder"
    [
      el "date" [ text (date rng) ];
      el "time" [ text (time rng) ];
      el "personref"
        ~attrs:[ ("person", Printf.sprintf "person%d" (Prng.int rng c.persons)) ]
        [];
      el "increase" [ text (money rng 50) ];
    ]

let open_auction rng c ~id =
  let bidders = List.init (Prng.int rng 6) (fun _ -> bidder rng c) in
  el "open_auction"
    ~attrs:[ ("id", Printf.sprintf "open_auction%d" id) ]
    ([
       el "initial" [ text (money rng 200) ];
       el "reserve" [ text (money rng 400) ];
     ]
    @ bidders
    @ [
        el "current" [ text (money rng 600) ];
        el "privacy" [ text (if Prng.bool rng then "Yes" else "No") ];
        el "itemref"
          ~attrs:[ ("item", Printf.sprintf "item%d" (Prng.int rng c.items)) ]
          [];
        el "seller"
          ~attrs:[ ("person", Printf.sprintf "person%d" (Prng.int rng c.persons)) ]
          [];
        el "annotation"
          [
            el "author"
              ~attrs:[ ("person", Printf.sprintf "person%d" (Prng.int rng c.persons)) ]
              [];
            description rng;
            el "happiness" [ text (string_of_int (Prng.int_in_range rng 1 10)) ];
          ];
        el "quantity" [ text (string_of_int (Prng.int_in_range rng 1 5)) ];
        el "type" [ text (Prng.choice rng Vocab.auction_types) ];
        el "interval"
          [ el "start" [ text (date rng) ]; el "end" [ text (date rng) ] ];
      ])

let closed_auction rng c =
  el "closed_auction"
    [
      el "seller"
        ~attrs:[ ("person", Printf.sprintf "person%d" (Prng.int rng c.persons)) ]
        [];
      el "buyer"
        ~attrs:[ ("person", Printf.sprintf "person%d" (Prng.int rng c.persons)) ]
        [];
      el "itemref"
        ~attrs:[ ("item", Printf.sprintf "item%d" (Prng.int rng c.items)) ]
        [];
      el "price" [ text (money rng 600) ];
      el "date" [ text (date rng) ];
      el "quantity" [ text (string_of_int (Prng.int_in_range rng 1 5)) ];
      el "type" [ text (Prng.choice rng Vocab.auction_types) ];
      el "annotation"
        [
          el "author"
            ~attrs:[ ("person", Printf.sprintf "person%d" (Prng.int rng c.persons)) ]
            [];
          description rng;
          el "happiness" [ text (string_of_int (Prng.int_in_range rng 1 10)) ];
        ];
    ]

let generate { scale; seed } =
  if scale <= 0.0 then invalid_arg "Xmark.Gen.generate: scale must be positive";
  let c = counts_for scale in
  let rng = Prng.create seed in
  (* Independent streams per section, so a section's content does not
     depend on how many entities precede it. *)
  let rng_regions = Prng.split rng in
  let rng_categories = Prng.split rng in
  let rng_people = Prng.split rng in
  let rng_open = Prng.split rng in
  let rng_closed = Prng.split rng in
  let region_elems =
    let n_regions = Array.length Vocab.regions in
    let per_region = Array.make n_regions 0 in
    for i = 0 to c.items - 1 do
      per_region.(i mod n_regions) <- per_region.(i mod n_regions) + 1
    done;
    let next_id = ref 0 in
    Array.to_list
      (Array.mapi
         (fun r name ->
           let items =
             List.init per_region.(r) (fun _ ->
                 let id = !next_id in
                 incr next_id;
                 item rng_regions c ~id)
           in
           el name items)
         Vocab.regions)
  in
  let categories =
    List.init c.categories (fun id -> category rng_categories ~id)
  in
  let catgraph =
    List.init
      (max 1 (c.categories / 2))
      (fun _ ->
        el "edge"
          ~attrs:
            [
              ("from", Printf.sprintf "category%d" (Prng.int rng_categories c.categories));
              ("to", Printf.sprintf "category%d" (Prng.int rng_categories c.categories));
            ]
          [])
  in
  let people = List.init c.persons (fun id -> person rng_people c ~id) in
  let opens = List.init c.open_auctions (fun id -> open_auction rng_open c ~id) in
  let closeds = List.init c.closed_auctions (fun _ -> closed_auction rng_closed c) in
  Dom.document
    (el "site"
       [
         el "regions" region_elems;
         el "categories" categories;
         el "catgraph" catgraph;
         el "people" people;
         el "open_auctions" opens;
         el "closed_auctions" closeds;
       ])

