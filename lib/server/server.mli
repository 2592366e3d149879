(** The verification daemon ([dsolve --serve SOCK]).

    One process stays resident with warm hash-cons tables, primitive
    environments, and SMT caches, and serves many clients at once over a
    Unix-domain socket: a [Unix.select] reactor multiplexes every
    connection through the non-blocking {!Protocol.reader}/{!writer}
    state machines, so a stalled or dribbling client costs the daemon
    nothing but its buffered bytes.

    Each program of a {!Protocol.Verify} batch resolves as one of:

    - a {b memo hit} — the in-memory table of reports this daemon
      already produced, keyed by {!Liquid_driver.Pipeline.request_key};
    - a {b disk hit} — the persistent cache ({!Liquid_cache.Store},
      when [cache_dir] is set);
    - a {b coalesced} solve — an identical request (same key) is
      already queued or running, so this one just waits for the same
      worker and receives the byte-identical report;
    - a {b cold} solve — dispatched through the async
      {!Liquid_engine.Scheduler} job API into a bounded pool of [jobs]
      forked workers, so a crashing or hanging solve is confined to its
      worker and comes back as a structured [Rejected] reply, never as
      a dead daemon;
    - {b shed} — rejected with [E_OVERLOAD] when the global in-flight
      cap ([max_inflight]) or the per-client queue bound
      ([client_queue]) is exceeded.

    Queued cold solves are dispatched round-robin across connections,
    so one tenant's burst cannot starve the others.  {!Protocol.Shutdown}
    drains: accepts and reads stop, in-flight solves finish, every
    pending reply is flushed, and only then does the daemon exit. *)

type config = {
  sock : string; (* path of the Unix-domain socket *)
  cache_dir : string option; (* persistent result cache root *)
  jobs : int; (* concurrent solve worker processes *)
  request_timeout : float option; (* wall-clock budget per program *)
  quiet : bool; (* suppress the stderr lifecycle log *)
  max_inflight : int; (* global cap on queued+running solves *)
  client_queue : int; (* per-connection cap on queued solves *)
  idle_timeout : float option; (* close connections idle this long *)
}

(** [jobs = 1], no cache, 300 s per-program timeout, not quiet,
    [max_inflight = 64], [client_queue = 16], 600 s idle timeout. *)
val default_config : sock:string -> config

(** Test-only fault injection, keyed by request name ([vq_name]) and
    passed as {!Liquid_engine.Scheduler.submit}'s [?fault] for cold
    solves.  Reset to [(fun _ -> None)] after use. *)
val fault_for : (string -> Liquid_engine.Scheduler.fault option) ref

(** Test-only solve delay, keyed by request name and applied inside the
    solve worker before the pipeline runs — makes coalescing and
    fairness windows deterministic in tests.  Reset to [(fun _ -> None)]
    after use. *)
val delay_for : (string -> float option) ref

(** Is something accepting connections at this socket path?  [false]
    when the file is absent or a leftover of a dead daemon (connect
    gives [ECONNREFUSED]/[ENOENT]); [true] for any live listener.  Used
    by {!serve} to avoid stealing a running daemon's socket; exposed
    for launchers that want the same check. *)
val socket_in_use : string -> bool

(** Run the reactor; blocks until a client sends {!Protocol.Shutdown}
    and the drain completes.  A stale socket file at [config.sock] (one
    no process is accepting on) is unlinked and replaced; if a live
    daemon owns the path, [serve] refuses to start (@raise Failure)
    rather than orphan it.  [EMFILE]/[ENFILE] on accept pauses new
    accepts briefly instead of crashing; [ECONNABORTED] is ignored.
    The socket is removed on exit. *)
val serve : config -> unit
