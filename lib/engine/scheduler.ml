(** Generic parallel scheduler over forked worker processes.

    Two layers:

    {ol
    {- An {e async job} API — {!submit} forks one unit of work
       immediately and returns a handle; the caller multiplexes over
       {!job_fd}/{!job_deadline} (e.g. in its own [select] loop) and
       calls {!step} to make progress.  Retry-on-crash and
       kill-on-timeout live {e inside} [step], so every caller gets the
       same fault-isolation policy.  This is what the verification
       daemon's reactor uses: solves run in the pool while the event
       loop keeps accepting and replying.}
    {- {!run}, the run-to-completion driver over a topologically
       ordered DAG of units, built on the same jobs.  Units are numbered
       [0 .. n_units-1] with every dependency id smaller than the
       dependent's id; a unit is {e ready} once all of its dependencies
       have been merged.  Workers are forked at dispatch time, after the
       parent has merged every dependency, so a worker sees all upstream
       results through inherited memory and only its own result crosses
       the process boundary.}}

    Fault isolation (both layers): each attempt has an optional
    wall-clock [timeout]; a worker that exceeds it is killed ([SIGKILL])
    and the job retried once, likewise for a worker that crashes
    (non-zero exit, signal, or a truncated/unreadable payload).  A job
    whose second attempt also fails surfaces as {!Failed} — the
    scheduler never wedges and never aborts. *)

(** Test-only fault injection, applied in the worker immediately after
    the fork: [Hang] loops forever (exercising the timeout path),
    [Crash] exits abruptly without writing a payload. *)
type fault = Hang | Crash

let fault_hook : (int -> fault option) ref = ref (fun _ -> None)

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

let cancel (j : 'r job) : unit =
  match j.j_done with
  | Some _ -> ()
  | None ->
      kill_attempt j.j_att;
      j.j_done <-
        Some (Failed { timed_out = false; attempts = j.j_att.n; detail = "cancelled" })

(* ------------------------------------------------------------------ *)
(* The DAG driver                                                      *)

(** Run the DAG.  [deps u] lists the units [u] reads (all [< u]);
    [work u] computes unit [u]'s result (in a worker process); [merge u
    outcome elapsed] folds it into parent state and is called exactly
    once per unit, only after all of [u]'s dependencies have merged.
    [elapsed] is the unit's wall-clock time across its attempts.

    [pre u] is a parent-side shortcut consulted at dispatch time — after
    [u]'s dependencies have merged, before any fork: [Some r] merges
    [Done r] immediately and no worker is ever spawned for [u].  This is
    how a result cache skips solved units without paying a fork.

    If [merge] raises, the workers still running are cancelled (killed
    and reaped) before the exception propagates. *)
let run ?timeout ?(pre : (int -> 'r option) = fun _ -> None) ~(jobs : int)
    ~(n_units : int) ~(deps : int -> int list) ~(work : int -> 'r)
    ~(merge : int -> 'r outcome -> float -> unit) () : unit =
  let jobs = max 1 jobs in
  let merged = Array.make n_units false in
  let dispatched = Array.make n_units false in
  let first_start = Array.make n_units 0.0 in
  let active : (int * 'r job) list ref = ref [] in
  let n_merged = ref 0 in
  let finish u outcome =
    merge u outcome (Unix.gettimeofday () -. first_start.(u));
    merged.(u) <- true;
    incr n_merged
  in
  let ready () =
    let rec scan u acc =
      if u >= n_units then List.rev acc
      else if
        (not dispatched.(u)) && List.for_all (fun d -> merged.(d)) (deps u)
      then scan (u + 1) (u :: acc)
      else scan (u + 1) acc
    in
    scan 0 []
  in
  (* Returns [true] when a [pre] shortcut merged at least one unit —
     merging can make further units ready, so the caller loops until
     dispatch reaches a fixed point. *)
  let dispatch () =
    let merged_here = ref false in
    List.iter
      (fun u ->
        match pre u with
        | Some r ->
            dispatched.(u) <- true;
            first_start.(u) <- Unix.gettimeofday ();
            finish u (Done r);
            merged_here := true
        | None ->
            if List.length !active < jobs then begin
              dispatched.(u) <- true;
              first_start.(u) <- Unix.gettimeofday ();
              active :=
                ( u,
                  submit ?timeout
                    ~fault:(fun () -> !fault_hook u)
                    (fun () -> work u) )
                :: !active
            end)
      (ready ());
    !merged_here
  in
  (* On a normal exit [active] is empty; when [merge] raises, the workers
     still running must not outlive the run. *)
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, j) -> cancel j) !active)
  @@ fun () ->
  while !n_merged < n_units do
    while dispatch () do
      ()
    done;
    if !n_merged < n_units then begin
      (* Topological numbering guarantees progress: if nothing is merged
         yet, unit 0 has no deps and is always dispatchable. *)
      assert (!active <> []);
      let now = Unix.gettimeofday () in
      let wait =
        List.fold_left
          (fun acc (_, j) ->
            match job_deadline j with
            | None -> acc
            | Some d ->
                let left = max 0.0 (d -. now) in
                if acc < 0.0 then left else min acc left)
          (-1.0) !active
      in
      ignore (select_eintr (List.map (fun (_, j) -> job_fd j) !active) wait);
      active :=
        List.filter
          (fun (u, j) ->
            match step j with
            | Some outcome ->
                finish u outcome;
                false
            | None -> true)
          !active
    end
  done
