(** Work in forked worker processes, with per-attempt wall-clock
    timeouts, one retry, and graceful failure surfacing.

    An {e async job} API ({!submit} / {!step}) for callers that
    multiplex work inside their own event loop: the verification
    daemon's reactor dispatches solves this way while it keeps accepting
    connections. *)

(** Test-only fault injection, evaluated in the worker immediately
    after the fork ({!submit}'s [?fault]): [Hang] loops forever
    (exercising the timeout/kill path), [Crash] exits abruptly without
    writing a payload. *)
type fault = Hang | Crash

type 'r outcome =
  | Done of 'r
  | Failed of { timed_out : bool; attempts : int; detail : string }

(** A unit of work running in a forked worker.  The handle owns the
    worker's result pipe; drive it with {!step} until an outcome
    appears.  Retry-on-crash and kill-on-timeout happen inside [step],
    so a job presents at most one live worker (and so one pipe fd) at a
    time. *)
type 'r job

(** [submit ?timeout ?fault work] forks a worker running [work ()] now
    and returns its handle.  [work]'s result is marshalled back (it must
    not contain closures; hash-consed values need re-interning on the
    parent side).  [fault] (default: none) is evaluated {e in the
    worker} right after the fork — test-only. *)
val submit : ?timeout:float -> ?fault:(unit -> fault option) -> (unit -> 'r) -> 'r job

(** The result pipe of the job's current attempt — select/poll on it.
    Respawned attempts change the fd, so re-query after every {!step}. *)
val job_fd : 'r job -> Unix.file_descr

(** Absolute deadline of the current attempt, when a timeout was set:
    feed [min] of these into the select timeout so expired workers are
    killed promptly. *)
val job_deadline : 'r job -> float option

(** Make progress: if the worker's pipe is readable, collect its payload
    (reaping the child); if its deadline has passed, kill it.  A first
    failure respawns the attempt and returns [None]; a success or second
    failure returns the job's final outcome (idempotently from then
    on). *)
val step : 'r job -> 'r outcome option
