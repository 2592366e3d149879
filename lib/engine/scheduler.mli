(** Work in forked worker processes, with a per-job wall-clock timeout
    and graceful failure surfacing.  A job runs once: a crash or a
    timeout is its outcome, not a cue to respawn it.

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
  | Failed of { timed_out : bool; detail : string }

(** A unit of work running in a forked worker.  The handle owns the
    worker's result pipe; drive it with {!step} until an outcome
    appears.  Kill-on-timeout happens inside [step]. *)
type 'r job

(** [submit ?timeout ?fault work] forks a worker running [work ()] now
    and returns its handle.  [work]'s result is marshalled back (it must
    not contain closures; hash-consed values need re-interning on the
    parent side).  [fault] (default: none) is evaluated {e in the
    worker} right after the fork — test-only. *)
val submit : ?timeout:float -> ?fault:(unit -> fault option) -> (unit -> 'r) -> 'r job

(** The result pipe of the job's worker — select/poll on it. *)
val job_fd : 'r job -> Unix.file_descr

(** Absolute deadline of the job, when a timeout was set: feed [min] of
    these into the select timeout so expired workers are killed
    promptly. *)
val job_deadline : 'r job -> float option

(** Make progress: if the worker's pipe is readable, collect its payload
    (reaping the child) and return the job's outcome; if its deadline
    has passed, kill it and return [Failed].  [None] while the worker
    runs; the same outcome on every call once there is one. *)
val step : 'r job -> 'r outcome option
