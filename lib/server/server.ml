open Liquid_infer
module Pipeline = Liquid_driver.Pipeline
module Scheduler = Liquid_engine.Scheduler

type config = {
  sock : string;
  cache_dir : string option;
  jobs : int;
  request_timeout : float option;
  quiet : bool;
  max_inflight : int;
  client_queue : int;
  idle_timeout : float option;
}

let default_config ~sock =
  {
    sock;
    cache_dir = None;
    jobs = 1;
    request_timeout = Some 300.;
    quiet = false;
    max_inflight = 64;
    client_queue = 16;
    idle_timeout = Some 600.;
  }

let fault_for : (string -> Scheduler.fault option) ref = ref (fun _ -> None)
let delay_for : (string -> float option) ref = ref (fun _ -> None)

let log cfg fmt =
  if cfg.quiet then Format.ifprintf Format.err_formatter fmt
  else Fmt.epr ("dsolve-server: " ^^ fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

(* Translate one wire request into pipeline options; qualifier and
   specification text is parsed here, in the parent, so a malformed
   request is rejected without ever reaching a worker. *)
let options_of cfg (q : Protocol.verify_request) :
    (Pipeline.options, Protocol.verify_error) result =
  match
    let extra = Qualifier.parse_string ~file:q.vq_name q.vq_qual_text in
    let quals =
      (if q.vq_use_defaults then Qualifier.defaults else [])
      @ (if q.vq_list_quals then Qualifier.list_defaults else [])
      @ extra
    in
    let specs = Spec.parse_string q.vq_spec_text in
    {
      Pipeline.default with
      quals;
      specs;
      mine = q.vq_mine;
      lint = q.vq_lint;
      explain = q.vq_explain;
      explain_limit = q.vq_explain_limit;
      gradual = q.vq_gradual;
      cache_dir = cfg.cache_dir;
    }
  with
  | o -> Ok o
  | exception Qualifier.Parse_error msg ->
      Error { Protocol.ve_code = "E_QUALIFIER"; ve_message = msg }
  | exception Spec.Error msg ->
      Error { Protocol.ve_code = "E_SPEC"; ve_message = msg }

(* What a solve worker sends back over its pipe.  Source errors are
   ordinary (deterministic) results, not worker faults. *)
type work_result =
  | W_ok of Pipeline.report
  | W_bad of Protocol.verify_error

let solve_one ~options (q : Protocol.verify_request) : work_result =
  (match !delay_for q.Protocol.vq_name with
  | Some s -> Unix.sleepf s
  | None -> ());
  match Pipeline.verify_string ~options ~name:q.vq_name q.vq_source with
  | r -> W_ok r
  | exception Pipeline.Source_error (msg, loc) ->
      W_bad
        {
          Protocol.ve_code = "E_SOURCE";
          ve_message = Fmt.str "%a: %s" Liquid_common.Loc.pp loc msg;
        }

(* ------------------------------------------------------------------ *)
(* Daemon state                                                        *)

(* A reply being produced for one received frame.  The wire contract is
   one reply per request, in request order — but the reactor finishes
   batches in whatever order their programs resolve (a warm batch
   overtakes an earlier cold one internally).  Each frame therefore
   allocates a slot in its connection's FIFO, and the writer only ever
   receives the resolved prefix. *)
type slot = { mutable s_payload : string option }

(* One client connection's state machine.  All of its I/O is
   non-blocking and staged through the reader/writer, so a stalled or
   dribbling peer can never hold up the reactor. *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_reader : Protocol.reader;
  c_writer : Protocol.writer;
  mutable c_handshaken : bool;
  mutable c_closing : bool; (* stop reading; close once the writer drains *)
  mutable c_alive : bool;
  mutable c_last : float; (* last I/O activity, for the idle timeout *)
  mutable c_queued : int; (* solves of this conn waiting for a worker *)
  mutable c_batches : int; (* Verify batches not yet fully answered *)
  c_replies : slot Queue.t; (* reply FIFO, one slot per received frame *)
}

(* One Verify batch: replies fill in as programs resolve (possibly out
   of order — warm hits immediately, cold solves as workers finish); the
   Results frame resolves the batch's reply slot when the last program
   fills in. *)
type batch = {
  bt_conn : conn;
  bt_slot : slot;
  bt_replies : Protocol.verify_reply option array;
  mutable bt_missing : int;
}

(* One distinct cold solve, queued or running.  Concurrent identical
   requests (same {!Pipeline.request_key}) attach as extra waiters
   instead of spawning their own workers — the coalescing that kills
   cache stampedes. *)
type pending = {
  p_key : string;
  p_req : Protocol.verify_request;
  p_options : Pipeline.options;
  p_owner : conn; (* whose queue budget this solve occupies *)
  mutable p_waiters : (batch * int) list; (* newest first; last = initiator *)
  mutable p_job : work_result Scheduler.job option; (* None while queued *)
}

type state = {
  cfg : config;
  started : float;
  mutable requests : int;
  mutable programs : int;
  mutable mem_hits : int;
  mutable disk_hits : int;
  mutable cold : int;
  mutable coalesced : int;
  mutable shed : int;
  mutable failures : int;
  (* Finished reports of this daemon's lifetime, keyed by
     {!Pipeline.request_key}; bounded, cleared wholesale when full. *)
  memo : (string, Pipeline.report) Hashtbl.t;
  (* Every queued or running solve, keyed by {!Pipeline.request_key} —
     the coalescing map.  Its size is the global in-flight gauge capped
     by [cfg.max_inflight]. *)
  inflight : (string, pending) Hashtbl.t;
  (* Per-connection FIFO of queued solves plus a round-robin rotation of
     connection ids owning work: dispatch alternates across tenants, so
     one client submitting a burst cannot starve the others.  Invariant:
     an id is in [rr] exactly once iff [queues] holds a non-empty queue
     for it. *)
  queues : (int, pending Queue.t) Hashtbl.t;
  rr : int Queue.t;
  mutable n_running : int;
  mutable conns : conn list;
  mutable draining : bool; (* Shutdown received: no accepts, no reads *)
  mutable accept_pause : float; (* EMFILE backoff: no accepts until then *)
}

let memo_cap = 512

let memo_add st key report =
  if Hashtbl.length st.memo >= memo_cap then Hashtbl.reset st.memo;
  Hashtbl.replace st.memo key report

let stats_of st : Protocol.server_stats =
  {
    sv_requests = st.requests;
    sv_programs = st.programs;
    sv_mem_hits = st.mem_hits;
    sv_disk_hits = st.disk_hits;
    sv_cold = st.cold;
    sv_coalesced = st.coalesced;
    sv_shed = st.shed;
    sv_failures = st.failures;
    sv_connections = List.length st.conns;
    sv_uptime = Unix.gettimeofday () -. st.started;
    sv_cache =
      Option.map
        (fun dir ->
          Liquid_cache.Store.stats_snapshot
            (Liquid_cache.Store.open_store ~dir ()))
        st.cfg.cache_dir;
  }

let rec select_eintr r w t =
  try Unix.select r w [] t
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_eintr r w t

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

let alloc_slot conn =
  let s = { s_payload = None } in
  Queue.add s conn.c_replies;
  s

(* Hand the writer every resolved reply at the head of the FIFO; an
   unresolved slot (a batch still solving) holds back everything behind
   it, preserving request order on the wire. *)
let flush_replies conn =
  let rec go () =
    match Queue.peek_opt conn.c_replies with
    | Some { s_payload = Some p } ->
        Protocol.writer_push conn.c_writer p;
        ignore (Queue.pop conn.c_replies : slot);
        go ()
    | _ -> ()
  in
  go ()

let resolve conn slot (r : Protocol.reply) =
  if conn.c_alive && slot.s_payload = None then begin
    slot.s_payload <- Some (Protocol.string_of_reply r);
    flush_replies conn
  end

let close_conn st conn =
  if conn.c_alive then begin
    conn.c_alive <- false;
    st.conns <- List.filter (fun c -> c != conn) st.conns;
    try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
  end

(* Fill one program's reply in a batch; resolves the batch's Results
   frame when complete.  Programs fill exactly once, in whatever order
   they resolve. *)
let fill _st ((bt, i) : batch * int) (reply : Protocol.verify_reply) =
  assert (bt.bt_replies.(i) = None);
  bt.bt_replies.(i) <- Some reply;
  bt.bt_missing <- bt.bt_missing - 1;
  if bt.bt_missing = 0 then begin
    bt.bt_conn.c_batches <- bt.bt_conn.c_batches - 1;
    resolve bt.bt_conn bt.bt_slot
      (Protocol.Results
         (Array.to_list bt.bt_replies
         |> List.map (function
              | Some r -> r
              | None ->
                  (* Unreachable: every program is filled above. *)
                  Protocol.Rejected
                    {
                      Protocol.ve_code = "E_CRASH";
                      ve_message = "no reply produced";
                    })))
  end

(* ------------------------------------------------------------------ *)
(* The solve pool: fair dispatch, coalesced settlement                 *)

(* Next queued solve in round-robin connection order. *)
let next_pending st : pending option =
  match Queue.take_opt st.rr with
  | None -> None
  | Some id ->
      let q = Hashtbl.find st.queues id in
      let p = Queue.take q in
      if Queue.is_empty q then Hashtbl.remove st.queues id
      else Queue.add id st.rr;
      p.p_owner.c_queued <- p.p_owner.c_queued - 1;
      Some p

let enqueue_pending st conn (p : pending) =
  (match Hashtbl.find_opt st.queues conn.c_id with
  | Some q -> Queue.add p q
  | None ->
      let q = Queue.create () in
      Queue.add p q;
      Hashtbl.replace st.queues conn.c_id q;
      Queue.add conn.c_id st.rr);
  conn.c_queued <- conn.c_queued + 1

let rec dispatch st =
  if st.n_running < max 1 st.cfg.jobs then
    match next_pending st with
    | None -> ()
    | Some p ->
        let q = p.p_req and options = p.p_options in
        p.p_job <-
          Some
            (Scheduler.submit ?timeout:st.cfg.request_timeout
               ~fault:(fun () -> !fault_for q.Protocol.vq_name)
               (fun () -> solve_one ~options q));
        st.n_running <- st.n_running + 1;
        dispatch st

(* Resolve a finished solve for every request coalesced onto it.  The
   report is re-interned once and every waiter receives the same value,
   so all replies are byte-identical. *)
let settle st (p : pending) (outcome : work_result Scheduler.outcome) =
  Hashtbl.remove st.inflight p.p_key;
  st.n_running <- st.n_running - 1;
  let waiters = List.rev p.p_waiters (* initiator first *) in
  match outcome with
  | Scheduler.Done (W_ok r) ->
      (* The report crossed the worker's pipe: re-intern before it
         mixes with native values. *)
      let r = Pipeline.rehash_report r in
      memo_add st p.p_key r;
      List.iteri
        (fun i w ->
          if i = 0 then st.cold <- st.cold + 1
          else st.coalesced <- st.coalesced + 1;
          fill st w (Protocol.Verified r))
        waiters
  | Scheduler.Done (W_bad e) ->
      List.iter
        (fun w ->
          st.failures <- st.failures + 1;
          fill st w (Protocol.Rejected e))
        waiters
  | Scheduler.Failed { timed_out; detail } ->
      let code = if timed_out then "E_TIMEOUT" else "E_CRASH" in
      let e =
        {
          Protocol.ve_code = code;
          ve_message =
            Fmt.str "solve worker %s: %s"
              (if timed_out then "timed out" else "crashed")
              detail;
        }
      in
      List.iter
        (fun w ->
          st.failures <- st.failures + 1;
          fill st w (Protocol.Rejected e))
        waiters

let step_jobs st =
  let finished =
    Hashtbl.fold
      (fun _ p acc ->
        match p.p_job with
        | None -> acc
        | Some j -> (
            match Scheduler.step j with
            | Some outcome -> (p, outcome) :: acc
            | None -> acc))
      st.inflight []
  in
  List.iter (fun (p, o) -> settle st p o) finished

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

(* Answer one batch.  Warm answers (memo, disk) fill immediately in the
   reactor; cold programs coalesce onto identical in-flight solves or
   join the fair queue, bounded per client and globally — beyond either
   cap the program is shed with E_OVERLOAD instead of queueing without
   limit. *)
let handle_verify st conn slot (reqs : Protocol.verify_request list) =
  st.requests <- st.requests + 1;
  st.programs <- st.programs + List.length reqs;
  let n = List.length reqs in
  let bt =
    {
      bt_conn = conn;
      bt_slot = slot;
      bt_replies = Array.make n None;
      bt_missing = n;
    }
  in
  if n = 0 then resolve conn slot (Protocol.Results [])
  else conn.c_batches <- conn.c_batches + 1;
  List.iteri
    (fun i q ->
      let reject e =
        st.failures <- st.failures + 1;
        fill st (bt, i) (Protocol.Rejected e)
      in
      let shed msg =
        st.shed <- st.shed + 1;
        reject { Protocol.ve_code = "E_OVERLOAD"; ve_message = msg }
      in
      try
        match options_of st.cfg q with
        | Error e -> reject e
        | Ok options -> (
            let key =
              Pipeline.request_key ~options ~name:q.Protocol.vq_name
                q.Protocol.vq_source
            in
            match Hashtbl.find_opt st.memo key with
            | Some r ->
                st.mem_hits <- st.mem_hits + 1;
                fill st (bt, i) (Protocol.Verified r)
            | None -> (
                match
                  Pipeline.cache_lookup ~options ~name:q.Protocol.vq_name
                    q.Protocol.vq_source
                with
                | Some r ->
                    st.disk_hits <- st.disk_hits + 1;
                    memo_add st key r;
                    fill st (bt, i) (Protocol.Verified r)
                | None -> (
                    match Hashtbl.find_opt st.inflight key with
                    | Some p ->
                        (* An identical solve is already queued or
                           running: wait for it instead of paying for
                           our own. *)
                        p.p_waiters <- (bt, i) :: p.p_waiters
                    | None ->
                        if Hashtbl.length st.inflight >= st.cfg.max_inflight
                        then
                          shed
                            (Fmt.str
                               "server at capacity: %d solves in flight \
                                (max-inflight %d)"
                               (Hashtbl.length st.inflight)
                               st.cfg.max_inflight)
                        else if conn.c_queued >= st.cfg.client_queue then
                          shed
                            (Fmt.str
                               "client queue full: %d solves pending \
                                (client-queue %d)"
                               conn.c_queued st.cfg.client_queue)
                        else begin
                          let p =
                            {
                              p_key = key;
                              p_req = q;
                              p_options = options;
                              p_owner = conn;
                              p_waiters = [ (bt, i) ];
                              p_job = None;
                            }
                          in
                          Hashtbl.replace st.inflight key p;
                          enqueue_pending st conn p;
                          (* Dispatch eagerly so a free worker empties
                             the queue between programs of one batch —
                             the caps then measure genuine backlog. *)
                          dispatch st
                        end)))
      with exn ->
        (* A bug in request handling must not kill the daemon: reject
           this program and keep serving. *)
        reject
          {
            Protocol.ve_code = "E_CRASH";
            ve_message = "internal error: " ^ Printexc.to_string exn;
          })
    reqs;
  dispatch st

let on_frame st conn slot payload =
  match Protocol.request_of_string payload with
  | exception Failure msg ->
      resolve conn slot (Protocol_error msg);
      conn.c_closing <- true
  | Hello { version; stamp } ->
      if conn.c_handshaken then
        resolve conn slot (Protocol_error "duplicate Hello")
      else if version <> Protocol.version then begin
        resolve conn slot
          (Protocol_error
             (Fmt.str "protocol version mismatch: server %d, client %d"
                Protocol.version version));
        conn.c_closing <- true
      end
      else if stamp <> Protocol.build_stamp then begin
        resolve conn slot
          (Protocol_error
             "build mismatch: client and server are different dsolve binaries");
        conn.c_closing <- true
      end
      else begin
        conn.c_handshaken <- true;
        resolve conn slot
          (Hello_ok { version = Protocol.version; stamp = Protocol.build_stamp })
      end
  | _ when not conn.c_handshaken ->
      resolve conn slot (Protocol_error "expected Hello");
      conn.c_closing <- true
  | Verify reqs -> handle_verify st conn slot reqs
  | Stats -> resolve conn slot (Stats_reply (stats_of st))
  | Shutdown ->
      log st.cfg "shutdown requested: draining %d in-flight solve(s)"
        (Hashtbl.length st.inflight);
      st.draining <- true;
      resolve conn slot Bye;
      conn.c_closing <- true

(* ------------------------------------------------------------------ *)
(* The reactor                                                         *)

let read_conn st conn =
  match Protocol.reader_step conn.c_fd conn.c_reader with
  | exception Failure msg ->
      (* Unrecoverable framing (e.g. an oversized length): tell the
         peer why, then hang up. *)
      resolve conn (alloc_slot conn) (Protocol_error msg);
      conn.c_closing <- true
  | Closed -> close_conn st conn
  | Frames fs ->
      conn.c_last <- Unix.gettimeofday ();
      List.iter
        (fun f ->
          if conn.c_alive && not conn.c_closing then begin
            let slot = alloc_slot conn in
            try on_frame st conn slot f
            with exn ->
              resolve conn slot
                (Protocol_error
                   ("internal error: " ^ Printexc.to_string exn));
              conn.c_closing <- true
          end)
        fs

let write_conn st conn =
  match Protocol.writer_step conn.c_fd conn.c_writer with
  | Protocol.Flushed ->
      conn.c_last <- Unix.gettimeofday ();
      if conn.c_closing then close_conn st conn
  | Protocol.Again -> conn.c_last <- Unix.gettimeofday ()
  | Protocol.Closed_w -> close_conn st conn

let conn_counter = ref 0

let rec accept_loop st listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      incr conn_counter;
      let conn =
        {
          c_id = !conn_counter;
          c_fd = fd;
          c_reader = Protocol.reader_create ();
          c_writer = Protocol.writer_create ();
          c_handshaken = false;
          c_closing = false;
          c_alive = true;
          c_last = Unix.gettimeofday ();
          c_queued = 0;
          c_batches = 0;
          c_replies = Queue.create ();
        }
      in
      st.conns <- conn :: st.conns;
      accept_loop st listen_fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop st listen_fd
  | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
      (* The peer gave up between connect and accept; nothing to do. *)
      accept_loop st listen_fd
  | exception Unix.Unix_error (((Unix.EMFILE | Unix.ENFILE) as e), _, _) ->
      (* Out of descriptors: keep serving the tenants we have and retry
         accepting shortly, instead of dying or spinning. *)
      log st.cfg "accept: %s; pausing accepts briefly" (Unix.error_message e);
      st.accept_pause <- Unix.gettimeofday () +. 0.2

let idle_sweep st now =
  (* Also reaps connections marked closing whose writers are already
     empty (they are excluded from both select sets). *)
  List.iter
    (fun c ->
      if c.c_alive && c.c_closing && not (Protocol.writer_pending c.c_writer)
      then close_conn st c)
    st.conns;
  match st.cfg.idle_timeout with
  | None -> ()
  | Some t ->
      List.iter
        (fun c ->
          if
            c.c_alive && (not c.c_closing) && c.c_batches = 0
            && (not (Protocol.writer_pending c.c_writer))
            && now -. c.c_last > t
          then begin
            log st.cfg "closing idle connection #%d" c.c_id;
            close_conn st c
          end)
        st.conns

(* Earliest instant anything timed is due: a solve deadline, an idle
   cutoff, or the end of an accept backoff.  [-1] = block until an fd
   event. *)
let next_wait st now =
  let min_opt acc t = match acc with None -> Some t | Some a -> Some (min a t) in
  let acc = ref None in
  Hashtbl.iter
    (fun _ p ->
      match p.p_job with
      | Some j -> (
          match Scheduler.job_deadline j with
          | Some d -> acc := min_opt !acc d
          | None -> ())
      | None -> ())
    st.inflight;
  (match st.cfg.idle_timeout with
  | Some t ->
      List.iter
        (fun c ->
          if c.c_alive && c.c_batches = 0 then
            acc := min_opt !acc (c.c_last +. t))
        st.conns
  | None -> ());
  if st.accept_pause > now then acc := min_opt !acc st.accept_pause;
  match !acc with None -> -1.0 | Some d -> max 0.0 (d -. now)

let reactor st listen_fd =
  Unix.set_nonblock listen_fd;
  let finished = ref false in
  while not !finished do
    if
      st.draining
      && Hashtbl.length st.inflight = 0
      && List.for_all
           (fun c -> not (Protocol.writer_pending c.c_writer))
           st.conns
    then finished := true
    else begin
      let now = Unix.gettimeofday () in
      let accepting = (not st.draining) && now >= st.accept_pause in
      let read_conns =
        if st.draining then []
        else List.filter (fun c -> not c.c_closing) st.conns
      in
      let job_fds =
        Hashtbl.fold
          (fun _ p acc ->
            match p.p_job with
            | Some j -> Scheduler.job_fd j :: acc
            | None -> acc)
          st.inflight []
      in
      let reads =
        (if accepting then [ listen_fd ] else [])
        @ List.map (fun c -> c.c_fd) read_conns
        @ job_fds
      in
      let write_conns =
        List.filter (fun c -> Protocol.writer_pending c.c_writer) st.conns
      in
      let rs, ws, _ =
        select_eintr reads
          (List.map (fun c -> c.c_fd) write_conns)
          (next_wait st now)
      in
      step_jobs st;
      if accepting && List.memq listen_fd rs then accept_loop st listen_fd;
      List.iter
        (fun c -> if c.c_alive && List.memq c.c_fd rs then read_conn st c)
        read_conns;
      List.iter
        (fun c -> if c.c_alive && List.memq c.c_fd ws then write_conn st c)
        write_conns;
      idle_sweep st (Unix.gettimeofday ());
      dispatch st
    end
  done;
  List.iter (fun c -> close_conn st c) st.conns

(* ------------------------------------------------------------------ *)

(* Force the lazy corners of the pipeline (primitive environments,
   default-qualifier parsing, hash-cons tables) so the first real
   request doesn't pay for them. *)
let warm_up () =
  ignore
    (Pipeline.verify_string ~name:"<warm-up>" "let warm = 1 + 1" : Pipeline.report)

(* Is something accepting connections on [sock]?  A plain [connect]
   probe: success means a live listener owns the path (we must not
   steal it); ECONNREFUSED or ENOENT means the file is a leftover of a
   dead daemon (or absent) and is safe to replace.  No handshake is
   attempted — a reply is not needed to establish liveness, and not
   reading means a wedged listener cannot hang the probe. *)
let socket_in_use sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
        ->
          false)

let serve cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let st =
    {
      cfg;
      started = Unix.gettimeofday ();
      requests = 0;
      programs = 0;
      mem_hits = 0;
      disk_hits = 0;
      cold = 0;
      coalesced = 0;
      shed = 0;
      failures = 0;
      memo = Hashtbl.create 64;
      inflight = Hashtbl.create 64;
      queues = Hashtbl.create 16;
      rr = Queue.create ();
      n_running = 0;
      conns = [];
      draining = false;
      accept_pause = 0.0;
    }
  in
  (* Probe before warming up: refusing to start should be instant, and
     unlinking a live daemon's socket would orphan it — clients would
     reach whichever process bound the path last while the other keeps
     running unreachable. *)
  if socket_in_use cfg.sock then
    failwith
      (Printf.sprintf
         "socket %s is owned by a running daemon; shut it down first or \
          serve on a different path"
         cfg.sock);
  warm_up ();
  (try Unix.unlink cfg.sock with Unix.Unix_error _ -> ());
  let sock_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock_fd with Unix.Unix_error _ -> ());
      try Unix.unlink cfg.sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock_fd (Unix.ADDR_UNIX cfg.sock);
      Unix.listen sock_fd 64;
      log cfg
        "listening on %s (jobs=%d, max-inflight=%d, client-queue=%d, cache=%s)"
        cfg.sock cfg.jobs cfg.max_inflight cfg.client_queue
        (Option.value ~default:"<none>" cfg.cache_dir);
      reactor st sock_fd;
      log cfg
        "shutting down after %d request(s), %d program(s) (%d cold, %d \
         coalesced, %d shed)"
        st.requests st.programs st.cold st.coalesced st.shed)
