exception Bad_request of string
exception Payload_too_large of int
exception Not_implemented of string
exception Closed

type request = {
  meth : string;
  target : string;
  path : string;
  query : (string * string) list;
  version : string;
  headers : (string * string) list;
  body : string;
}

(* Hard wire-format bounds, independent of the configurable body cap:
   a peer feeding an endless header section must run into a limit. *)
let max_line_bytes = 16 * 1024
let max_header_count = 128

(* ------------------------------------------------------------------ *)
(* Buffered reading                                                    *)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (** next unread byte *)
  mutable len : int;  (** valid bytes in [buf] *)
}

let reader fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0 }

let refill r =
  let n = Unix.read r.fd r.buf 0 (Bytes.length r.buf) in
  if n = 0 then raise Closed;
  r.pos <- 0;
  r.len <- n

let read_byte r =
  if r.pos >= r.len then refill r;
  let c = Bytes.get r.buf r.pos in
  r.pos <- r.pos + 1;
  c

(* One header/request line, CRLF- (or bare-LF-) terminated, terminator
   stripped. *)
let read_line r =
  let b = Buffer.create 64 in
  let rec go () =
    match read_byte r with
    | '\n' -> ()
    | c ->
        if Buffer.length b >= max_line_bytes then
          raise (Bad_request "header line too long");
        Buffer.add_char b c;
        go ()
  in
  go ();
  let s = Buffer.contents b in
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let read_exact r n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if r.pos >= r.len then refill r;
    let take = min (n - !filled) (r.len - r.pos) in
    Bytes.blit r.buf r.pos out !filled take;
    r.pos <- r.pos + take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

(* ------------------------------------------------------------------ *)
(* Encoding helpers                                                    *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> raise (Bad_request "invalid percent escape")

let decode ~plus_is_space s =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (match s.[!i] with
    | '+' when plus_is_space -> Buffer.add_char b ' '
    | '%' ->
        if !i + 2 >= n then raise (Bad_request "truncated percent escape");
        Buffer.add_char b
          (Char.chr ((16 * hex_val s.[!i + 1]) + hex_val s.[!i + 2]));
        i := !i + 2
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

(* [+ -> space] is form encoding, which applies to query keys/values
   only; in the path component a literal [+] is just a [+]. *)
let url_decode s = decode ~plus_is_space:true s
let path_decode s = decode ~plus_is_space:false s

let url_encode s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
          Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let parse_target target =
  let path_raw, query_raw =
    match String.index_opt target '?' with
    | Some i ->
        ( String.sub target 0 i,
          String.sub target (i + 1) (String.length target - i - 1) )
    | None -> (target, "")
  in
  let params =
    if query_raw = "" then []
    else
      String.split_on_char '&' query_raw
      |> List.filter (fun kv -> kv <> "")
      |> List.map (fun kv ->
             match String.index_opt kv '=' with
             | Some i ->
                 ( url_decode (String.sub kv 0 i),
                   url_decode
                     (String.sub kv (i + 1) (String.length kv - i - 1)) )
             | None -> (url_decode kv, ""))
  in
  (path_decode path_raw, params)

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)

let is_token_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '!' | '#' | '$' | '%' | '&' | '\'' | '*' | '+' | '-' | '.' | '^' | '_'
  | '`' | '|' | '~' ->
      true
  | _ -> false

let is_token s = s <> "" && String.for_all is_token_char s

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] ->
      if not (is_token meth) then raise (Bad_request "malformed method");
      if target = "" || target.[0] <> '/' then
        raise (Bad_request "malformed request-target");
      if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
        raise (Bad_request "unsupported HTTP version");
      (meth, target, version)
  | _ -> raise (Bad_request "malformed request line")

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> raise (Bad_request "malformed header (no colon)")
  | Some i ->
      let name = String.sub line 0 i in
      if not (is_token name) then raise (Bad_request "malformed header name");
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      (String.lowercase_ascii name, value)

let read_headers r =
  let rec go acc count =
    match read_line r with
    | "" -> List.rev acc
    | line ->
        if count >= max_header_count then
          raise (Bad_request "too many headers");
        (* Obsolete line folding (a continuation starting with
           whitespace) is a request smuggling vector; RFC 9112 lets a
           server reject it outright. *)
        if line.[0] = ' ' || line.[0] = '\t' then
          raise (Bad_request "obsolete header folding");
        go (parse_header_line line :: acc) (count + 1)
  in
  go [] 0

let assoc_header headers name = List.assoc_opt (String.lowercase_ascii name) headers

(* RFC 9110 §8.6: [Content-Length = 1*DIGIT].  [int_of_string] would
   also take "0x10", "1_0", "+5" or "0b11", and a body length that
   differs from what a front proxy computes is a request-smuggling
   vector — so digits only, no overflow, and several headers must
   agree. *)
let content_length headers =
  let parse v =
    let v = String.trim v in
    if v = "" then raise (Bad_request "malformed content-length");
    String.fold_left
      (fun n c ->
        match c with
        | '0' .. '9' when n <= (max_int - 9) / 10 ->
            (10 * n) + Char.code c - Char.code '0'
        | _ -> raise (Bad_request "malformed content-length"))
      0 v
  in
  match
    List.filter_map
      (fun (k, v) -> if k = "content-length" then Some (parse v) else None)
      headers
  with
  | [] -> None
  | n :: rest ->
      if List.exists (( <> ) n) rest then
        raise (Bad_request "conflicting content-length headers");
      Some n

(* A request body framed with [Transfer-Encoding: chunked] is valid
   HTTP/1.1 that this server simply does not serve: answering 501 (and
   closing, since the body boundary is unknown) beats dropping the
   connection.  Any other transfer coding is a syntax-level reject. *)
let body_length headers ~max_body =
  match assoc_header headers "transfer-encoding" with
  | Some v when String.lowercase_ascii (String.trim v) = "chunked" ->
      raise (Not_implemented "chunked request bodies are not supported")
  | Some v ->
      raise (Bad_request (Printf.sprintf "unsupported transfer-encoding %S" v))
  | None -> (
      match content_length headers with
      | None -> 0
      | Some n ->
          if n > max_body then raise (Payload_too_large max_body);
          n)

let read_request ?(max_body = 1024 * 1024) r =
  let meth, target, version = parse_request_line (read_line r) in
  let headers = read_headers r in
  let body = read_exact r (body_length headers ~max_body) in
  let path, query = parse_target target in
  { meth; target; path; query; version; headers; body }

let header req name = assoc_header req.headers name
let param req name = List.assoc_opt name req.query

(* Bulk-ingest body framing: a header line [<name> <decimal-length>]
   followed by exactly [length] payload bytes, whitespace between
   frames skipped.  One forward cursor; each part goes to [on_part] as
   it is reached. *)
let iter_frames body on_part =
  let n = String.length body in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n
      && match body.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false
    do
      incr pos
    done
  in
  skip_ws ();
  if !pos >= n then raise (Bad_request "empty ingest body");
  while !pos < n do
    let nl =
      match String.index_from_opt body !pos '\n' with
      | Some i -> i
      | None -> raise (Bad_request "truncated ingest frame header")
    in
    let header = String.trim (String.sub body !pos (nl - !pos)) in
    let name, len =
      match String.rindex_opt header ' ' with
      | Some i -> (
          let name = String.trim (String.sub header 0 i) in
          let len_s =
            String.sub header (i + 1) (String.length header - i - 1)
          in
          match int_of_string_opt len_s with
          | Some l when l >= 0 && name <> "" -> (name, l)
          | _ ->
              raise
                (Bad_request
                   (Printf.sprintf "malformed ingest frame header %S" header)))
      | None ->
          raise
            (Bad_request
               (Printf.sprintf
                  "malformed ingest frame header %S (want \"<name> <length>\")"
                  header))
    in
    if nl + 1 + len > n then
      raise
        (Bad_request (Printf.sprintf "ingest frame %S: payload truncated" name));
    on_part name (String.sub body (nl + 1) len);
    pos := nl + 1 + len;
    skip_ws ()
  done

let wants_keep_alive req =
  let connection =
    Option.map String.lowercase_ascii (header req "connection")
  in
  match (req.version, connection) with
  | _, Some "close" -> false
  | "HTTP/1.0", Some "keep-alive" -> true
  | "HTTP/1.0", _ -> false
  | _, _ -> true

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

let reason = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 401 -> "Unauthorized"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 502 -> "Bad Gateway"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let write_response fd ~status ?(headers = [])
    ?(content_type = "text/plain; charset=utf-8") ~keep_alive body =
  let b = Buffer.create (256 + String.length body) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" content_type);
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  Buffer.add_string b
    (if keep_alive then "Connection: keep-alive\r\n"
     else "Connection: close\r\n");
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  write_all fd (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Chunked transfer encoding, write side.  The head announces
   [Transfer-Encoding: chunked] instead of a [Content-Length]; the
   body then streams through a [chunk_writer], which coalesces small
   emissions into chunks of about [threshold] bytes — the per-
   connection peak buffering is the threshold, never the whole
   response. *)

let write_response_head fd ~status ?(headers = [])
    ?(content_type = "text/plain; charset=utf-8") ~keep_alive () =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" content_type);
  Buffer.add_string b "Transfer-Encoding: chunked\r\n";
  Buffer.add_string b
    (if keep_alive then "Connection: keep-alive\r\n"
     else "Connection: close\r\n");
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b "\r\n";
  write_all fd (Buffer.contents b)

type chunk_writer = {
  cw_fd : Unix.file_descr;
  cw_buf : Buffer.t;
  cw_threshold : int;
  mutable cw_bytes : int;  (** payload bytes written so far *)
  mutable cw_chunks : int;  (** HTTP chunks emitted so far *)
}

let chunk_writer ?(threshold = 8192) fd =
  {
    cw_fd = fd;
    cw_buf = Buffer.create (min threshold 8192);
    cw_threshold = max 1 threshold;
    cw_bytes = 0;
    cw_chunks = 0;
  }

let chunk_flush w =
  let len = Buffer.length w.cw_buf in
  if len > 0 then begin
    write_all w.cw_fd (Printf.sprintf "%x\r\n" len);
    write_all w.cw_fd (Buffer.contents w.cw_buf);
    write_all w.cw_fd "\r\n";
    Buffer.clear w.cw_buf;
    w.cw_chunks <- w.cw_chunks + 1
  end

let chunk w s =
  Buffer.add_string w.cw_buf s;
  w.cw_bytes <- w.cw_bytes + String.length s;
  if Buffer.length w.cw_buf >= w.cw_threshold then chunk_flush w

(* The last-chunk terminator: its presence is what lets a client
   distinguish a complete chunked response from a truncated one. *)
let chunk_end w =
  chunk_flush w;
  write_all w.cw_fd "0\r\n\r\n"

let chunk_writer_bytes w = w.cw_bytes
let chunk_writer_chunks w = w.cw_chunks

(* ------------------------------------------------------------------ *)
(* Chunked transfer encoding, read side (responses only: requests
   framed this way are answered 501 above).  [iter] hands the payload
   to [emit] in blocks no larger than the reader's buffer, so piping a
   chunked body (the router's job) never materializes it. *)

module Chunked = struct
  let chunk_size r =
    let line = read_line r in
    let size_str =
      match String.index_opt line ';' with
      | Some i -> String.sub line 0 i (* chunk extensions: ignored *)
      | None -> line
    in
    let size_str = String.trim size_str in
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if size_str = "" || not (String.for_all is_hex size_str) then
      raise (Bad_request "malformed chunk size");
    match int_of_string_opt ("0x" ^ size_str) with
    | Some n when n >= 0 -> n
    | _ -> raise (Bad_request "malformed chunk size")

  (* Stream [size] payload bytes to [emit] without assembling them. *)
  let blocks r size emit =
    let remaining = ref size in
    while !remaining > 0 do
      if r.pos >= r.len then refill r;
      let take = min !remaining (r.len - r.pos) in
      emit (Bytes.sub_string r.buf r.pos take);
      r.pos <- r.pos + take;
      remaining := !remaining - take
    done

  let iter ?(max_body = max_int) r emit =
    let total = ref 0 in
    let rec go () =
      let size = chunk_size r in
      if size = 0 then begin
        (* Trailer section: drop until the blank line. *)
        let rec drop () = if read_line r <> "" then drop () in
        drop ()
      end
      else begin
        total := !total + size;
        if !total > max_body then raise (Payload_too_large max_body);
        blocks r size emit;
        (match read_line r with
        | "" -> ()
        | _ -> raise (Bad_request "missing chunk terminator"));
        go ()
      end
    in
    go ()
end

(* ------------------------------------------------------------------ *)
(* Bearer-token authentication helpers, shared by the server and the
   router.  The comparison is constant-time in the length of the
   presented token: every byte is folded into the accumulator whether
   or not an earlier byte already mismatched, so timing reveals
   nothing about how long a prefix matched. *)

let const_time_eq a b =
  let la = String.length a and lb = String.length b in
  let acc = ref (la lxor lb) in
  for i = 0 to la - 1 do
    acc :=
      !acc
      lor (Char.code a.[i] lxor Char.code b.[if lb = 0 then 0 else i mod lb])
  done;
  lb > 0 && !acc = 0

let bearer_token headers =
  match assoc_header headers "authorization" with
  | None -> None
  | Some v -> (
      let v = String.trim v in
      match String.index_opt v ' ' with
      | Some i
        when String.lowercase_ascii (String.sub v 0 i) = "bearer" ->
          Some (String.trim (String.sub v (i + 1) (String.length v - i - 1)))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)

type response = {
  status : int;
  r_headers : (string * string) list;
  r_body : string;
}

let write_request fd ~meth ~target ?(headers = []) body =
  let b = Buffer.create (256 + String.length body) in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
  if not (List.mem_assoc "Host" headers) then
    Buffer.add_string b "Host: localhost\r\n";
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  write_all fd (Buffer.contents b)

type response_head = {
  h_status : int;
  h_headers : (string * string) list;
}

let read_response_head r =
  let status_line = read_line r in
  let status =
    match String.split_on_char ' ' status_line with
    | version :: code :: _
      when String.length version >= 5 && String.sub version 0 5 = "HTTP/" -> (
        match int_of_string_opt code with
        | Some c -> c
        | None -> raise (Bad_request "malformed status code"))
    | _ -> raise (Bad_request "malformed status line")
  in
  { h_status = status; h_headers = read_headers r }

let head_is_chunked head =
  match assoc_header head.h_headers "transfer-encoding" with
  | Some v -> String.lowercase_ascii (String.trim v) = "chunked"
  | None -> false

(* Stream a response body to [emit] in bounded blocks — chunked,
   [Content-Length]-delimited, or close-delimited, whichever the head
   announced.  This is the router's pipe: it forwards shard bytes to
   the client as they arrive, holding at most one reader buffer. *)
let iter_response_body ?(max_body = max_int) r head emit =
  if head_is_chunked head then Chunked.iter ~max_body r emit
  else
    match content_length head.h_headers with
    | Some n ->
        if n > max_body then raise (Payload_too_large max_body);
        Chunked.blocks r n emit
    | None -> (
        (* Read-to-EOF fallback for peers that close to delimit. *)
        let total = ref 0 in
        try
          while true do
            if r.pos >= r.len then refill r;
            let take = r.len - r.pos in
            total := !total + take;
            if !total > max_body then raise (Payload_too_large max_body);
            emit (Bytes.sub_string r.buf r.pos take);
            r.pos <- r.len
          done
        with Closed -> ())

let read_response r =
  let head = read_response_head r in
  let b = Buffer.create 256 in
  iter_response_body r head (Buffer.add_string b);
  {
    status = head.h_status;
    r_headers = head.h_headers;
    r_body = Buffer.contents b;
  }

let response_header resp name = assoc_header resp.r_headers name
