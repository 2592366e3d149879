(** Forked worker jobs with per-attempt wall-clock timeouts, one
    retry, and graceful failure surfacing.

    {!submit} forks one unit of work immediately and returns a handle;
    the caller multiplexes over {!job_fd}/{!job_deadline} (e.g. in its
    own [select] loop) and calls {!step} to make progress.  This is what
    the verification daemon's reactor uses: solves run in a pool of
    workers while the event loop keeps accepting and replying.

    Fault isolation lives {e inside} [step]: each attempt has an
    optional wall-clock [timeout]; a worker that exceeds it is killed
    ([SIGKILL]) and the job retried once, likewise for a worker that
    crashes (non-zero exit, signal, or a truncated/unreadable payload).
    A job whose second attempt also fails surfaces as {!Failed} — a job
    never wedges its caller. *)

(** Test-only fault injection, applied in the worker immediately after
    the fork: [Hang] loops forever (exercising the timeout path),
    [Crash] exits abruptly without writing a payload. *)
type fault = Hang | Crash

type 'r outcome =
  | Done of 'r
  | Failed of { timed_out : bool; attempts : int; detail : string }

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
(* One attempt: a forked worker and the pipe its result crosses        *)

type attempt = {
  pid : int;
  fd : Unix.file_descr;
  deadline : float option; (* absolute, for this attempt *)
  n : int; (* 1 or 2 *)
}

(** Fork one attempt.  The child runs [work ()] and marshals [Ok result]
    (or [Error exn_string]) back; it exits with [_exit] so inherited
    output buffers are never flushed twice. *)
let spawn_attempt ?timeout ~(fault : unit -> fault option)
    ~(work : unit -> 'r) (n : int) : attempt =
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
      { pid; fd = rd; deadline; n }

(** Read a worker's payload.  Returns [Ok result] or [Error detail];
    always reaps the child and closes the pipe. *)
let collect_attempt (a : attempt) : ('r, string) Result.t =
  let ic = Unix.in_channel_of_descr a.fd in
  let payload =
    match (Marshal.from_channel ic : ('r, string) Result.t) with
    | p -> Some p
    | exception _ -> None
  in
  close_in_noerr ic;
  let status = waitpid_eintr a.pid in
  match payload with
  | Some (Ok res) -> Ok res
  | Some (Error msg) -> Error ("worker raised: " ^ msg)
  | None -> Error (status_detail status)

let kill_attempt (a : attempt) : unit =
  (try Unix.kill a.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_eintr a.pid);
  try Unix.close a.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Async jobs                                                          *)

type 'r job = {
  j_timeout : float option;
  j_work : unit -> 'r;
  j_fault : unit -> fault option;
  mutable j_att : attempt;
  mutable j_done : 'r outcome option;
}

let submit ?timeout ?(fault = fun () -> None) (work : unit -> 'r) : 'r job =
  {
    j_timeout = timeout;
    j_work = work;
    j_fault = fault;
    j_att = spawn_attempt ?timeout ~fault ~work 1;
    j_done = None;
  }

let job_fd (j : 'r job) = j.j_att.fd
let job_deadline (j : 'r job) = j.j_att.deadline

let readable fd =
  match select_eintr [ fd ] 0.0 with [], _, _ -> false | _ -> true

let step (j : 'r job) : 'r outcome option =
  match j.j_done with
  | Some _ as d -> d
  | None ->
      let finish o =
        j.j_done <- Some o;
        j.j_done
      in
      let retry_or_fail ~timed_out detail =
        if j.j_att.n >= 2 then
          finish (Failed { timed_out; attempts = j.j_att.n; detail })
        else begin
          j.j_att <-
            spawn_attempt ?timeout:j.j_timeout ~fault:j.j_fault ~work:j.j_work
              (j.j_att.n + 1);
          None
        end
      in
      if readable j.j_att.fd then
        match collect_attempt j.j_att with
        | Ok res -> finish (Done res)
        | Error detail -> retry_or_fail ~timed_out:false detail
      else begin
        match j.j_att.deadline with
        | Some d when d <= Unix.gettimeofday () ->
            kill_attempt j.j_att;
            retry_or_fail ~timed_out:true
              (Printf.sprintf "timed out after %.1fs"
                 (Option.value ~default:0.0 j.j_timeout))
        | _ -> None
      end
