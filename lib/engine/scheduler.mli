(** Parallel execution over forked worker processes, with per-attempt
    wall-clock timeouts, one retry, and graceful failure surfacing.

    Two layers: an {e async job} API ({!submit} / {!step}) for callers
    that multiplex work inside their own event loop — the verification
    daemon's reactor dispatches solves this way while it keeps accepting
    connections — and {!run}, the run-to-completion driver over a
    topologically ordered DAG of units, built on the same jobs. *)

(** Test-only fault injection, applied in the worker immediately after
    the fork: [Hang] loops forever (exercising the timeout/kill path),
    [Crash] exits abruptly without writing a payload.  Reset to
    [(fun _ -> None)] after use.  Consulted by {!run} with the unit id;
    {!submit} takes its own [?fault] thunk instead. *)
type fault = Hang | Crash

val fault_hook : (int -> fault option) ref

type 'r outcome =
  | Done of 'r
  | Failed of { timed_out : bool; attempts : int; detail : string }

(** {1 Async jobs} *)

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

(** Kill the current attempt and pin the job to [Failed] (no retry).
    No-op on a finished job. *)
val cancel : 'r job -> unit

(** {1 The DAG driver} *)

(** [run ?timeout ?pre ~jobs ~n_units ~deps ~work ~merge ()] executes
    units [0 .. n_units-1], where every id in [deps u] is [< u].  A unit
    is dispatched once all of its dependencies have merged, so a forked
    worker sees every upstream result through inherited memory; [work u]
    runs in the worker and its result is marshalled back.  [merge u
    outcome elapsed] runs in the parent, exactly once per unit.  At most
    [jobs] workers run concurrently.  A worker exceeding [timeout]
    seconds is killed and the unit retried once; crashes likewise.  A
    second failure yields [Failed] — the scheduler never wedges and
    never aborts the run.

    [pre u] (default: always [None]) is consulted in the parent at
    dispatch time, after [u]'s dependencies merged: [Some r] merges
    [Done r] without forking a worker — the shortcut a result cache
    uses to skip already-solved units.

    [merge] may raise, e.g. to fail the run on a [Failed] unit: the
    workers still running are then {!cancel}led (killed and reaped)
    and the exception propagates. *)
val run :
  ?timeout:float ->
  ?pre:(int -> 'r option) ->
  jobs:int ->
  n_units:int ->
  deps:(int -> int list) ->
  work:(int -> 'r) ->
  merge:(int -> 'r outcome -> float -> unit) ->
  unit ->
  unit
