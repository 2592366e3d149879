(** Wire protocol of the verification daemon: length-prefixed Marshal
    frames over a Unix-domain stream socket.

    Every connection opens with a {!Hello} handshake carrying the
    protocol version and the client's build stamp; the server refuses
    mismatches, so two different dsolve builds can never exchange
    marshalled values (whose layouts may differ).  After the handshake
    the client sends any number of {!Verify} batches (and {!Stats} /
    {!Shutdown}), each answered by exactly one reply.

    Two framing layers share one wire format: blocking channel I/O
    ({!send_request} …) for clients, and incremental {!reader}/{!writer}
    state machines for the daemon's non-blocking reactor — a client that
    dribbles a frame byte-by-byte never blocks the event loop. *)

val version : int

(** Build identity shared with the persistent cache
    ({!Liquid_cache.Store.default_stamp}): an MD5 of the executable
    image. *)
val build_stamp : string

(** One program to verify.  Qualifiers and specifications travel as
    {e source text} and are parsed server-side: sending parsed
    (hash-consed) values across the boundary would require re-interning
    on every hop, and the parse is a trivial fraction of a solve. *)
type verify_request = {
  vq_name : string; (* file name, for locations and reporting *)
  vq_source : string; (* NanoML source text *)
  vq_qual_text : string; (* extra qualifier declarations, may be "" *)
  vq_use_defaults : bool; (* include the built-in default qualifiers *)
  vq_list_quals : bool; (* include the list-length qualifier set *)
  vq_spec_text : string; (* external specifications, may be "" *)
  vq_mine : bool;
  vq_lint : bool;
  vq_incremental : bool; (* ignored; {!request} sets it *)
  vq_explain : bool; (* explain failed obligations (post-fixpoint) *)
  vq_explain_limit : int; (* failures explained per program *)
  vq_gradual : bool; (* gradual mode: residual casts, not errors *)
}

(** Build a request; defaults mirror {!Liquid_driver.Pipeline.default}
    (defaults on, no list qualifiers, mining on, lint off, explanation
    off with a limit of 5, gradual off). *)
val request :
  ?qual_text:string ->
  ?use_defaults:bool ->
  ?list_quals:bool ->
  ?spec_text:string ->
  ?mine:bool ->
  ?lint:bool ->
  ?explain:bool ->
  ?explain_limit:int ->
  ?gradual:bool ->
  name:string ->
  string ->
  verify_request

(** Structured failure for one program; the daemon survives all of
    them.  Codes: [E_QUALIFIER] / [E_SPEC] (malformed request inputs),
    [E_SOURCE] (lex/parse/type error in the program), [E_CRASH] (the
    solve worker died, after one retry), [E_TIMEOUT] (the solve worker
    exceeded the request timeout, after one retry), [E_OVERLOAD] (shed:
    the per-client queue or the global in-flight cap was full — retry
    later). *)
type verify_error = { ve_code : string; ve_message : string }

type verify_reply =
  | Verified of Liquid_driver.Pipeline.report
  | Rejected of verify_error

(** Daemon-lifetime counters.  Every program of every batch resolves as
    exactly one of: memo hit, disk hit, cold solve, coalesced onto an
    already-running identical solve, or failure (which includes shed
    requests) — so [sv_programs] = [sv_mem_hits + sv_disk_hits + sv_cold
    + sv_coalesced + sv_failures]. *)
type server_stats = {
  sv_requests : int; (* Verify batches served *)
  sv_programs : int; (* programs across all batches *)
  sv_mem_hits : int; (* served from the in-memory result table *)
  sv_disk_hits : int; (* served from the persistent cache *)
  sv_cold : int; (* solved by a worker *)
  sv_coalesced : int; (* joined an identical in-flight solve *)
  sv_shed : int; (* rejected with E_OVERLOAD (also in sv_failures) *)
  sv_failures : int; (* Rejected replies *)
  sv_connections : int; (* currently open client connections *)
  sv_uptime : float; (* seconds since the daemon started *)
  sv_cache : Liquid_cache.Store.stats option; (* persistent-cache counters *)
}

type request =
  | Hello of { version : int; stamp : string }
  | Verify of verify_request list
  | Stats
  | Shutdown

type reply =
  | Hello_ok of { version : int; stamp : string }
  | Results of verify_reply list
  | Stats_reply of server_stats
  | Bye
  | Protocol_error of string

(** {1 Blocking channel framing (clients, tests)} *)

(** Framed send/receive.  [recv_*] raise [End_of_file] on a closed
    peer and [Failure] on an oversized or malformed frame. *)

val send_request : out_channel -> request -> unit
val recv_reply : in_channel -> reply

(** Marshal to/from a frame payload (no length prefix).  [_of_string]
    raise [Failure] on a malformed payload. *)

val string_of_request : request -> string
val request_of_string : string -> request
val string_of_reply : reply -> string
val reply_of_string : string -> reply

(** {1 Incremental framing (the daemon's reactor)} *)

(** Accumulates raw bytes from a non-blocking descriptor and splits out
    complete length-prefixed frames as they arrive. *)
type reader

val reader_create : unit -> reader

type read_event =
  | Frames of string list (* complete frame payloads, possibly none *)
  | Closed (* orderly EOF or a hard connection error *)

(** One [read(2)] on the (non-blocking) descriptor, folded into the
    reader; [Frames []] after a short read that completed nothing (or
    [EAGAIN]).  @raise Failure on a negative or oversized frame length —
    the connection cannot be resynchronized past that point. *)
val reader_step : Unix.file_descr -> reader -> read_event

(** Queue of outgoing frames, flushed as the descriptor accepts bytes. *)
type writer

val writer_create : unit -> writer

(** Enqueue one frame ([payload] gets the 4-byte length prefix). *)
val writer_push : writer -> string -> unit

(** Is anything still waiting to be written? *)
val writer_pending : writer -> bool

type write_event =
  | Flushed (* nothing left to write *)
  | Again (* the descriptor stopped accepting bytes; more remains *)
  | Closed_w (* the peer is gone *)

(** Write as much as the (non-blocking) descriptor accepts right now. *)
val writer_step : Unix.file_descr -> writer -> write_event
