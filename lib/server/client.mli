(** Client side of the verification daemon ([dsolve --connect SOCK]). *)

type t

(** Connect and complete the {!Protocol.Hello} handshake.
    @raise Failure on a protocol-version or build-stamp mismatch
    @raise Unix.Unix_error when nothing is listening on [sock]. *)
val connect : string -> t

(** Verify a batch; replies come back in request order.
    @raise Failure if the server answers with a protocol error. *)
val verify : t -> Protocol.verify_request list -> Protocol.verify_reply list

(** Pipelined verification: {!post} sends a batch without waiting;
    {!collect} blocks for the next batch reply (re-interned like
    {!verify}).  Replies arrive in posting order — the daemon answers
    each connection's batches FIFO even when their programs finish out
    of order internally.  [verify c b = post c b; collect c]. *)
val post : t -> Protocol.verify_request list -> unit

val collect : t -> Protocol.verify_reply list
val stats : t -> Protocol.server_stats

(** Ask the daemon to drain and exit: it stops accepting, finishes
    every in-flight solve, flushes every pending reply, then closes. *)
val shutdown : t -> unit

val close : t -> unit

(** [with_connection sock f] runs [f] on a fresh connection and closes
    it afterwards, also on exceptions. *)
val with_connection : string -> (t -> 'a) -> 'a
