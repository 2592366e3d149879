(** Forked worker jobs with a per-job wall-clock timeout and graceful
    failure surfacing.

    {!submit} forks one unit of work immediately and returns a handle;
    the caller multiplexes over {!job_fd}/{!job_deadline} (e.g. in its
    own [select] loop) and calls {!step} to make progress.  This is what
    the verification daemon's reactor uses: solves run in a pool of
    workers while the event loop keeps accepting and replying.

    Fault isolation lives {e inside} [step]: a job has an optional
    wall-clock [timeout]; a worker that exceeds it is killed
    ([SIGKILL]), and the job surfaces as {!Failed}, likewise for a
    worker that crashes (non-zero exit, signal, or a truncated or
    unreadable payload) — a job never wedges its caller.  There is no
    retry: the work is a pure function of its inputs, so a second
    attempt would repeat the first. *)

(** Test-only fault injection, applied in the worker immediately after
    the fork: [Hang] loops forever (exercising the timeout path),
    [Crash] exits abruptly without writing a payload. *)
type fault = Hang | Crash

type 'r outcome =
  | Done of 'r
  | Failed of { timed_out : bool; detail : string }

let rec select_eintr fds t =
  try Unix.select fds [] [] t
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_eintr fds t

let rec waitpid_eintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

let status_detail = function
  | Unix.WEXITED 0 -> "truncated result"
  | Unix.WEXITED n -> Printf.sprintf "worker exited with code %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "worker killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "worker stopped by signal %d" n

(* ------------------------------------------------------------------ *)
(* A job: a forked worker and the pipe its result crosses              *)

type 'r job = {
  pid : int;
  fd : Unix.file_descr;
  deadline : float option; (* absolute *)
  mutable outcome : 'r outcome option;
}

(** Fork the worker.  The child runs [work ()] and marshals [Ok result]
    (or [Error exn_string]) back; it exits with [_exit] so inherited
    output buffers are never flushed twice. *)
let submit ?timeout ?(fault = fun () -> None) (work : unit -> 'r) : 'r job =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      (match fault () with
      | Some Hang ->
          while true do
            ignore (select_eintr [] 3600.0)
          done
      | Some Crash -> Unix._exit 70
      | None -> ());
      let payload =
        match work () with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      (try
         Marshal.to_channel oc payload [];
         flush oc
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
      { pid; fd = rd; deadline; outcome = None }

let job_fd (j : 'r job) = j.fd
let job_deadline (j : 'r job) = j.deadline

(** Read the worker's payload.  Always reaps the child and closes the
    pipe. *)
let collect (j : 'r job) : 'r outcome =
  let ic = Unix.in_channel_of_descr j.fd in
  let payload =
    match (Marshal.from_channel ic : ('r, string) Result.t) with
    | p -> Some p
    | exception _ -> None
  in
  close_in_noerr ic;
  let status = waitpid_eintr j.pid in
  match payload with
  | Some (Ok res) -> Done res
  | Some (Error msg) -> Failed { timed_out = false; detail = "worker raised: " ^ msg }
  | None -> Failed { timed_out = false; detail = status_detail status }

let kill (j : 'r job) : 'r outcome =
  (try Unix.kill j.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_eintr j.pid);
  (try Unix.close j.fd with Unix.Unix_error _ -> ());
  Failed { timed_out = true; detail = "killed at its deadline" }

let readable fd =
  match select_eintr [ fd ] 0.0 with [], _, _ -> false | _ -> true

let step (j : 'r job) : 'r outcome option =
  if Option.is_none j.outcome then
    if readable j.fd then j.outcome <- Some (collect j)
    else begin
      match j.deadline with
      | Some d when d <= Unix.gettimeofday () -> j.outcome <- Some (kill j)
      | _ -> ()
    end;
  j.outcome
