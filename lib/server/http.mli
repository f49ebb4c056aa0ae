(** A deliberately small HTTP/1.1 wire layer over [Unix] file
    descriptors: enough of RFC 9112 for the query service — request
    line, headers, [Content-Length] bodies, keep-alive, and chunked
    transfer encoding on the response side (written via
    {!chunk_writer}, read via {!iter_response_body}) — and nothing
    more (no obsolete line folding, no trailers; chunked {e request}
    bodies are answered 501 via {!Not_implemented}).

    Both directions are here: the server side ({!read_request} /
    {!write_response} / {!chunk_writer}) and the client side
    ({!write_request} / {!read_response} / {!read_response_head}),
    the latter shared by the router's proxy path, the test suite and
    the [bench serve] load generator, so the bytes the tests speak are
    produced by the same code they exercise. *)

(** A syntactically invalid request (malformed request line, bad
    header, unsupported transfer encoding, a [Content-Length] that is
    not all digits, overflows or disagrees with another
    [Content-Length]) or a malformed parameter or body, raised by a
    handler.  The server answers 400. *)
exception Bad_request of string

(** Valid HTTP this implementation chooses not to serve (a chunked
    request body).  The server answers 501 and closes — the body
    boundary is unknowable, so the connection cannot be reused. *)
exception Not_implemented of string

(** A body larger than the configured cap; the argument is the cap.
    The server answers 413. *)
exception Payload_too_large of int

(** The peer closed the connection (or a read timed out) before a full
    message was received.  Between keep-alive requests this is the
    normal end of a connection, not an error. *)
exception Closed

type request = {
  meth : string;  (** verb, as sent (["GET"], ["POST"], ...) *)
  target : string;  (** raw request-target, e.g. ["/query?jobs=4"] *)
  path : string;  (** decoded path component, e.g. ["/query"] *)
  query : (string * string) list;  (** decoded query parameters *)
  version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] *)
  headers : (string * string) list;
      (** names lowercased, in arrival order *)
  body : string;
}

(** A buffered reader over a file descriptor.  One reader per
    connection: leftover bytes after a request (pipelined requests)
    stay in the buffer for the next {!read_request}. *)
type reader

val reader : Unix.file_descr -> reader

(** [read_request ~max_body r] reads one full request.
    @raise Bad_request on syntax errors
    @raise Not_implemented on a chunked request body
    @raise Payload_too_large when [Content-Length] exceeds [max_body]
    @raise Closed on EOF before a complete request
    @raise Unix.Unix_error ([EAGAIN]/[EWOULDBLOCK]) when the socket's
    receive timeout fires mid-read. *)
val read_request : ?max_body:int -> reader -> request

(** [header req name] is the value of the (case-insensitive) header. *)
val header : request -> string -> string option

(** [param req name] is the value of a decoded query parameter. *)
val param : request -> string -> string option

(** [iter_frames body on_part] walks a framed bulk-ingest body: each
    frame is a header line [<name> <decimal-length>] followed by
    exactly [length] bytes, whitespace between frames skipped; every
    part goes to [on_part name payload] in order.
    @raise Bad_request on an empty body or a malformed, truncated
    frame. *)
val iter_frames : string -> (string -> string -> unit) -> unit

(** Whether the client asked to keep the connection open: HTTP/1.1
    defaults to yes unless [Connection: close]; HTTP/1.0 defaults to
    no unless [Connection: keep-alive]. *)
val wants_keep_alive : request -> bool

(** The canonical reason phrase, e.g. [reason 503 = "Service
    Unavailable"]. *)
val reason : int -> string

(** [write_response fd ~status ~keep_alive body] writes a complete
    response with [Content-Length], a [Connection] header matching
    [keep_alive], [content_type] (default
    ["text/plain; charset=utf-8"]) and any extra [headers]. *)
val write_response :
  Unix.file_descr ->
  status:int ->
  ?headers:(string * string) list ->
  ?content_type:string ->
  keep_alive:bool ->
  string ->
  unit

(** {1 Chunked responses (streaming write side)}

    [write_response_head] writes a head announcing
    [Transfer-Encoding: chunked]; the body then streams through a
    {!chunk_writer}.  Small emissions coalesce into chunks of about
    [threshold] bytes (default 8 KiB), so the per-connection peak
    buffering is the threshold — never the whole response.  The
    terminating [0]-chunk written by {!chunk_end} is what lets a
    client distinguish completion from truncation: a stream aborted
    mid-way (a deadline firing during serialization, a dead shard) is
    detectable because the terminator never arrives. *)

val write_response_head :
  Unix.file_descr ->
  status:int ->
  ?headers:(string * string) list ->
  ?content_type:string ->
  keep_alive:bool ->
  unit ->
  unit

type chunk_writer

val chunk_writer : ?threshold:int -> Unix.file_descr -> chunk_writer

(** [chunk w s] appends [s] to the current chunk, flushing it as one
    HTTP chunk once it reaches the threshold. *)
val chunk : chunk_writer -> string -> unit


(** [chunk_end w] flushes and writes the last-chunk terminator. *)
val chunk_end : chunk_writer -> unit

(** Payload bytes emitted so far (excluding chunk framing). *)
val chunk_writer_bytes : chunk_writer -> int

(** HTTP chunks written so far. *)
val chunk_writer_chunks : chunk_writer -> int

(** {1 Bearer-token authentication helpers}

    Shared by the server and the router so both enforce the token the
    same way. *)

(** [const_time_eq a b] compares without short-circuiting: the time
    taken depends only on the length of [a] (the presented token),
    never on how long a prefix matched.  [false] when [b] is empty. *)
val const_time_eq : string -> string -> bool

(** [bearer_token headers] extracts the token of an
    [Authorization: Bearer <token>] header (names lowercased, as
    {!read_request} returns them). *)
val bearer_token : (string * string) list -> string option

(** {1 Client side} *)

type response = {
  status : int;
  r_headers : (string * string) list;  (** names lowercased *)
  r_body : string;
}

(** [write_request fd ~meth ~target body] writes a complete request
    with [Content-Length] (and [Host], as HTTP/1.1 requires). *)
val write_request :
  Unix.file_descr ->
  meth:string ->
  target:string ->
  ?headers:(string * string) list ->
  string ->
  unit

(** [read_response r] reads one full response — [Content-Length]-
    delimited, chunked, or close-delimited — assembling the body.
    @raise Closed on EOF before a complete response
    @raise Bad_request on syntax errors. *)
val read_response : reader -> response

val response_header : response -> string -> string option

(** {2 Streaming read side}

    The router's pipe: read the head, decide what to tell the client,
    then forward body bytes as they arrive. *)

type response_head = {
  h_status : int;
  h_headers : (string * string) list;  (** names lowercased *)
}

val read_response_head : reader -> response_head


(** [iter_response_body ?max_body r head emit] streams the body that
    follows [head] to [emit] in blocks bounded by the reader's buffer
    — chunk framing is decoded, never forwarded.
    @raise Payload_too_large past [max_body] (default: unlimited)
    @raise Bad_request on malformed chunk framing
    @raise Closed on EOF before a complete chunked body. *)
val iter_response_body :
  ?max_body:int -> reader -> response_head -> (string -> unit) -> unit

(** {1 Encoding helpers} *)

(** Percent-decoding, with [+] as space (query components). *)
val url_decode : string -> string

(** Percent-decoding only — [+] stays a literal [+] (path component;
    [+] -> space is form encoding and applies to query strings only). *)
val path_decode : string -> string

val url_encode : string -> string

(** [parse_target t] splits a request-target into its decoded path and
    query parameters. *)
val parse_target : string -> string * (string * string) list
