(* Tests for the verification daemon: request/response round-trips,
   structured errors for bad inputs, fault isolation (a crashed or hung
   solve worker never kills the daemon), concurrent clients, and
   warm-vs-cold verdict equality across the benchmark suite. *)

open Liquid_suite
module Pipeline = Liquid_driver.Pipeline
module Protocol = Liquid_server.Protocol
module Server = Liquid_server.Server
module Client = Liquid_server.Client
module Scheduler = Liquid_engine.Scheduler

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dsolve-server-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

(* All regular files under [dir] (entry files of the store). *)
let rec files_under dir =
  List.concat_map
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then files_under p else [ p ])
    (Array.to_list (Sys.readdir dir))

(* A store's whole-run report entries only: partition-level entries
   live in the "punit" namespace (an extra directory level) and are not
   counted. *)
let report_entries dir =
  List.concat_map
    (fun f ->
      let p = Filename.concat dir f in
      if f = "punit" then []
      else if Sys.is_directory p then files_under p
      else [ p ])
    (Array.to_list (Sys.readdir dir))

(* The daemon runs in a forked child (as in production); [Server.fault_for]
   and [Server.delay_for] set before the fork are inherited by it.
   [Unix._exit] keeps the child away from alcotest's exit machinery. *)
let start_server ?cache_dir ?request_timeout ?(jobs = 1) ?max_inflight
    ?client_queue sock =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try
         let d = Server.default_config ~sock in
         Server.serve
           {
             d with
             Server.cache_dir;
             jobs;
             request_timeout;
             quiet = true;
             max_inflight =
               Option.value ~default:d.Server.max_inflight max_inflight;
             client_queue =
               Option.value ~default:d.Server.client_queue client_queue;
           }
       with _ -> ());
      Unix._exit 0
  | pid -> pid

let stop_server pid sock =
  (try Client.with_connection sock Client.shutdown with _ -> ());
  ignore (Unix.waitpid [] pid)

let with_client sock f =
  let c = Client.connect_retry sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let with_server ?cache_dir ?request_timeout ?jobs ?max_inflight ?client_queue
    f =
  with_dir (fun base ->
      let sock = Filename.concat base "d.sock" in
      let pid =
        start_server ?cache_dir ?request_timeout ?jobs ?max_inflight
          ?client_queue sock
      in
      Fun.protect ~finally:(fun () -> stop_server pid sock) (fun () -> f sock))

let src_safe =
  "let rec sum k =\n\
  \  if k < 0 then 0\n\
  \  else begin\n\
  \    let s = sum (k - 1) in\n\
  \    s + k\n\
  \  end"

(* All items named: anonymous items get gensym'd names whose stamps
   drift across processes, spoiling byte-for-byte comparisons between
   daemon-produced and direct reports. *)
let src_unsafe = "let a = Array.make 5 0\nlet bad = a.(7)"

(* The observable verdict of a report, rendered; equality here is the
   "byte-identical to one-shot dsolve" acceptance bar. *)
let render (r : Pipeline.report) =
  ( r.Pipeline.safe,
    List.map
      (fun (e : Pipeline.error) ->
        Fmt.str "%a: %s: %s" Liquid_common.Loc.pp e.Pipeline.err_loc
          e.Pipeline.err_reason e.Pipeline.err_goal)
      r.Pipeline.errors,
    List.map
      (fun (x, t) ->
        Fmt.str "%a : %a" Liquid_common.Ident.pp x Liquid_infer.Rtype.pp
          (Liquid_infer.Report.display t))
      r.Pipeline.item_types )

let expect_verified = function
  | Protocol.Verified r -> r
  | Protocol.Rejected e ->
      Alcotest.failf "expected Verified, got [%s] %s" e.Protocol.ve_code
        e.Protocol.ve_message

(* The accounting identity [protocol.mli] documents: every program of
   every batch resolves as exactly one of memo hit, disk hit, cold
   solve, coalesced or failure. *)
let check_accounting (s : Protocol.server_stats) =
  check_int "programs = mem hits + disk hits + cold + coalesced + failures"
    s.Protocol.sv_programs
    (s.Protocol.sv_mem_hits + s.Protocol.sv_disk_hits + s.Protocol.sv_cold
   + s.Protocol.sv_coalesced + s.Protocol.sv_failures)

let expect_rejected code = function
  | Protocol.Rejected e ->
      check_string "error code" code e.Protocol.ve_code;
      e
  | Protocol.Verified _ -> Alcotest.failf "expected Rejected %s" code

(* ------------------------------------------------------------------ *)
(* Round-trips                                                         *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  with_server (fun sock ->
      with_client sock (fun c ->
          let replies =
            Client.verify c
              [
                Protocol.request ~name:"sum.ml" src_safe;
                Protocol.request ~name:"bad.ml" src_unsafe;
              ]
          in
          match replies with
          | [ r_safe; r_unsafe ] ->
              let direct_safe =
                Pipeline.verify_string ~name:"sum.ml" src_safe
              in
              let direct_unsafe =
                Pipeline.verify_string ~name:"bad.ml" src_unsafe
              in
              check_bool "safe program verdict matches direct run" true
                (render (expect_verified r_safe) = render direct_safe);
              check_bool "unsafe program verdict matches direct run" true
                (render (expect_verified r_unsafe) = render direct_unsafe)
          | rs -> Alcotest.failf "expected 2 replies, got %d" (List.length rs)))

let test_structured_errors () =
  with_server (fun sock ->
      with_client sock (fun c ->
          (* Replies arrive in request order, failures in place. *)
          let replies =
            Client.verify c
              [
                Protocol.request ~name:"broken.ml" "let x = (in in";
                Protocol.request ~name:"ok.ml" src_safe;
                Protocol.request ~name:"badqual.ml" ~qual_text:"qualif ((("
                  src_safe;
                Protocol.request ~name:"badspec.ml" ~spec_text:"val x : (("
                  src_safe;
              ]
          in
          (match replies with
          | [ r1; r2; r3; r4 ] ->
              ignore (expect_rejected "E_SOURCE" r1);
              check_bool "healthy neighbour unaffected" true
                (expect_verified r2).Pipeline.safe;
              ignore (expect_rejected "E_QUALIFIER" r3);
              ignore (expect_rejected "E_SPEC" r4)
          | rs -> Alcotest.failf "expected 4 replies, got %d" (List.length rs));
          (* The daemon is still serving. *)
          let s = Client.stats c in
          check_int "all programs accounted" 4 s.Protocol.sv_programs;
          check_int "three failures counted" 3 s.Protocol.sv_failures;
          check_accounting s))

(* ------------------------------------------------------------------ *)
(* Fault isolation                                                     *)
(* ------------------------------------------------------------------ *)

let with_fault_for hook f =
  Server.fault_for := hook;
  Fun.protect ~finally:(fun () -> Server.fault_for := fun _ -> None) f

(* Deterministic slow solves: the hook (inherited across the daemon
   fork) sleeps inside the worker, holding the named program in flight
   long enough for coalescing/backpressure windows to be observable. *)
let with_delay_for hook f =
  Server.delay_for := hook;
  Fun.protect ~finally:(fun () -> Server.delay_for := fun _ -> None) f

let test_crashed_worker () =
  with_fault_for
    (fun name -> if name = "crashme.ml" then Some Scheduler.Crash else None)
    (fun () ->
      with_server (fun sock ->
          with_client sock (fun c ->
              let replies =
                Client.verify c
                  [
                    Protocol.request ~name:"crashme.ml" src_safe;
                    Protocol.request ~name:"ok.ml" src_safe;
                  ]
              in
              (match replies with
              | [ r1; r2 ] ->
                  ignore (expect_rejected "E_CRASH" r1);
                  check_bool "other program in the batch still verified" true
                    (expect_verified r2).Pipeline.safe
              | rs ->
                  Alcotest.failf "expected 2 replies, got %d" (List.length rs));
              (* The daemon survived its worker: a follow-up request on
                 the same connection succeeds. *)
              let again =
                Client.verify c [ Protocol.request ~name:"after.ml" src_safe ]
              in
              check_bool "daemon keeps serving after a crash" true
                (expect_verified (List.hd again)).Pipeline.safe)))

let test_hung_worker () =
  with_fault_for
    (fun name -> if name = "hangme.ml" then Some Scheduler.Hang else None)
    (fun () ->
      with_server ~request_timeout:0.3 (fun sock ->
          with_client sock (fun c ->
              let replies =
                Client.verify c [ Protocol.request ~name:"hangme.ml" src_safe ]
              in
              ignore (expect_rejected "E_TIMEOUT" (List.hd replies));
              let again =
                Client.verify c [ Protocol.request ~name:"after.ml" src_safe ]
              in
              check_bool "daemon keeps serving after a timeout" true
                (expect_verified (List.hd again)).Pipeline.safe)))

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

let test_version_mismatch () =
  with_server (fun sock ->
      (* Make sure the daemon is up first. *)
      with_client sock (fun c -> ignore (Client.stats c));
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Protocol.send_request oc
        (Protocol.Hello { version = 999; stamp = Protocol.build_stamp });
      (match Protocol.recv_reply ic with
      | Protocol.Protocol_error _ -> ()
      | _ -> Alcotest.fail "version mismatch should be refused");
      close_out_noerr oc;
      (* And the daemon shrugs it off. *)
      with_client sock (fun c ->
          let replies =
            Client.verify c [ Protocol.request ~name:"ok.ml" src_safe ]
          in
          check_bool "daemon serves after a refused handshake" true
            (expect_verified (List.hd replies)).Pipeline.safe))

(* ------------------------------------------------------------------ *)
(* Socket-liveness probe                                               *)
(* ------------------------------------------------------------------ *)

let test_socket_liveness () =
  with_dir (fun base ->
      let sock = Filename.concat base "d.sock" in
      check_bool "absent path is not in use" false (Server.socket_in_use sock);
      (* A stale socket file: bound once by a process that is gone. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX sock);
      Unix.close fd;
      check_bool "socket file without a listener is not in use" false
        (Server.socket_in_use sock);
      (* [serve] replaces such a leftover (exercised daily by every
         daemon restart); here probe only, and hand the path to a real
         daemon. *)
      Sys.remove sock;
      let pid = start_server sock in
      Fun.protect
        ~finally:(fun () -> stop_server pid sock)
        (fun () ->
          with_client sock (fun c -> ignore (Client.stats c));
          check_bool "live daemon's socket is in use" true
            (Server.socket_in_use sock);
          (* A second daemon on the same path must refuse to start
             rather than unlink the socket out from under the first. *)
          flush stdout;
          flush stderr;
          (match Unix.fork () with
          | 0 ->
              let code =
                try
                  Server.serve
                    {
                      (Server.default_config ~sock) with
                      Server.request_timeout = None;
                      quiet = true;
                    };
                  1
                with
                | Failure _ -> 0
                | _ -> 1
              in
              Unix._exit code
          | pid2 ->
              let _, status = Unix.waitpid [] pid2 in
              check_bool "second daemon refuses to start" true
                (status = Unix.WEXITED 0));
          (* The first daemon is unharmed and still serving. *)
          with_client sock (fun c ->
              let replies =
                Client.verify c [ Protocol.request ~name:"ok.ml" src_safe ]
              in
              check_bool "original daemon still serves" true
                (expect_verified (List.hd replies)).Pipeline.safe)))

(* ------------------------------------------------------------------ *)
(* Concurrent clients                                                  *)
(* ------------------------------------------------------------------ *)

let test_concurrent_clients () =
  with_server (fun sock ->
      with_client sock (fun c -> ignore (Client.stats c));
      flush stdout;
      flush stderr;
      let kids =
        List.init 4 (fun i ->
            match Unix.fork () with
            | 0 ->
                let status =
                  try
                    with_client sock (fun c ->
                        let name = Printf.sprintf "client%d.ml" i in
                        match
                          Client.verify c [ Protocol.request ~name src_safe ]
                        with
                        | [ Protocol.Verified r ] when r.Pipeline.safe -> 0
                        | _ -> 1)
                  with _ -> 2
                in
                Unix._exit status
            | pid -> pid)
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _, Unix.WEXITED n ->
              Alcotest.failf "concurrent client exited with %d" n
          | _ -> Alcotest.fail "concurrent client killed")
        kids;
      with_client sock (fun c ->
          check_int "all four client programs served" 4
            (Client.stats c).Protocol.sv_programs))

(* ------------------------------------------------------------------ *)
(* Warmth: memory hits, then persistent-cache hits across a restart    *)
(* ------------------------------------------------------------------ *)

let test_memo_and_disk_hits () =
  with_dir (fun base ->
      let sock = Filename.concat base "d.sock" in
      let cache = Filename.concat base "cache" in
      let request = Protocol.request ~name:"sum.ml" src_safe in
      let pid = start_server ~cache_dir:cache sock in
      let first =
        Fun.protect
          ~finally:(fun () -> stop_server pid sock)
          (fun () ->
            with_client sock (fun c ->
                let cold = expect_verified (List.hd (Client.verify c [ request ])) in
                let warm = expect_verified (List.hd (Client.verify c [ request ])) in
                check_bool "warm in-memory reply identical" true
                  (render cold = render warm);
                let s = Client.stats c in
                check_int "one cold solve" 1 s.Protocol.sv_cold;
                check_int "one memory hit" 1 s.Protocol.sv_mem_hits;
                check_int "no disk hit yet" 0 s.Protocol.sv_disk_hits;
                check_accounting s;
                cold))
      in
      (* A fresh daemon has an empty memo but the same disk cache. *)
      let pid = start_server ~cache_dir:cache sock in
      Fun.protect
        ~finally:(fun () -> stop_server pid sock)
        (fun () ->
          with_client sock (fun c ->
              let served = expect_verified (List.hd (Client.verify c [ request ])) in
              check_bool "restarted daemon serves from disk, identically" true
                (render first = render served);
              check_int "report marked as a persistent-cache hit" 1
                served.Pipeline.stats.Pipeline.n_pcache_hits;
              let s = Client.stats c in
              check_int "no cold solve after restart" 0 s.Protocol.sv_cold;
              check_int "one disk hit" 1 s.Protocol.sv_disk_hits;
              check_accounting s)))

(* The acceptance bar, end to end: the whole benchmark suite through a
   warm daemon is verdict-identical to direct in-process verification,
   with a non-zero persistent-cache hit rate after a restart. *)
let test_suite_warm_equals_cold () =
  with_dir (fun base ->
      let sock = Filename.concat base "d.sock" in
      let cache = Filename.concat base "cache" in
      let direct =
        List.map
          (fun (b : Programs.benchmark) ->
            (b.Programs.name, render (Runner.verify b).Runner.report))
          Programs.all
      in
      let batch =
        List.map
          (fun (b : Programs.benchmark) ->
            Protocol.request ~qual_text:b.Programs.extra_qualifiers ~mine:false
              ~name:b.Programs.name b.Programs.source)
          Programs.all
      in
      let renders replies =
        List.map2
          (fun (b : Programs.benchmark) reply ->
            (b.Programs.name, render (expect_verified reply)))
          Programs.all replies
      in
      let pid = start_server ~cache_dir:cache sock in
      let cold =
        Fun.protect
          ~finally:(fun () -> stop_server pid sock)
          (fun () -> with_client sock (fun c -> renders (Client.verify c batch)))
      in
      check_bool "cold daemon pass matches direct verification" true
        (cold = direct);
      let pid = start_server ~cache_dir:cache sock in
      Fun.protect
        ~finally:(fun () -> stop_server pid sock)
        (fun () ->
          with_client sock (fun c ->
              let warm = renders (Client.verify c batch) in
              check_bool "warm daemon pass matches direct verification" true
                (warm = direct);
              let s = Client.stats c in
              check_bool "persistent-cache hit rate is positive" true
                (s.Protocol.sv_disk_hits > 0);
              check_int "warm pass never solves cold" 0 s.Protocol.sv_cold)))

(* ------------------------------------------------------------------ *)
(* Multi-tenancy: coalescing, backpressure, stall isolation, drain     *)
(* ------------------------------------------------------------------ *)

(* Two clients racing the same program: one cold solve, two identical
   replies, and the stats say so. *)
let test_coalescing () =
  with_delay_for
    (fun name -> if name = "dup.ml" then Some 0.5 else None)
    (fun () ->
      with_server (fun sock ->
          let c1 = Client.connect_retry sock in
          let c2 = Client.connect_retry sock in
          Fun.protect
            ~finally:(fun () ->
              Client.close c1;
              Client.close c2)
            (fun () ->
              let req = Protocol.request ~name:"dup.ml" src_safe in
              Client.post c1 [ req ];
              Client.post c2 [ req ];
              let r1 = expect_verified (List.hd (Client.collect c1)) in
              let r2 = expect_verified (List.hd (Client.collect c2)) in
              check_bool "coalesced reply identical to the solved one" true
                (render r1 = render r2);
              let s = Client.stats c1 in
              check_int "exactly one cold solve for two requests" 1
                s.Protocol.sv_cold;
              check_int "the other request coalesced onto it" 1
                s.Protocol.sv_coalesced;
              check_int "no memo hit involved" 0 s.Protocol.sv_mem_hits;
              check_accounting s)))

(* The global in-flight cap: with room for 2, a batch of 4 distinct slow
   programs yields 2 solves and 2 E_OVERLOAD sheds — deterministically,
   since the first two are still in flight when the rest arrive. *)
let test_overload_shed () =
  with_delay_for
    (fun name ->
      if String.length name >= 4 && String.sub name 0 4 = "slow" then Some 0.4
      else None)
    (fun () ->
      with_server ~max_inflight:2 (fun sock ->
          with_client sock (fun c ->
              let reqs =
                List.init 4 (fun i ->
                    Protocol.request
                      ~name:(Printf.sprintf "slow%d.ml" i)
                      src_safe)
              in
              match Client.verify c reqs with
              | [ r1; r2; r3; r4 ] ->
                  check_bool "first admitted" true
                    (expect_verified r1).Pipeline.safe;
                  check_bool "second admitted" true
                    (expect_verified r2).Pipeline.safe;
                  ignore (expect_rejected "E_OVERLOAD" r3);
                  ignore (expect_rejected "E_OVERLOAD" r4);
                  let s = Client.stats c in
                  check_int "two programs shed" 2 s.Protocol.sv_shed;
                  check_int "sheds counted as failures" 2
                    s.Protocol.sv_failures;
                  check_int "two cold solves" 2 s.Protocol.sv_cold;
                  check_accounting s
              | rs ->
                  Alcotest.failf "expected 4 replies, got %d" (List.length rs))))

(* The per-client queue bound (fairness backstop): with one worker and a
   queue of 1, a burst of 3 slow programs gets one running, one queued,
   and the third shed — the client cannot monopolize the backlog. *)
let test_client_queue_shed () =
  with_delay_for
    (fun name ->
      if String.length name >= 4 && String.sub name 0 4 = "slow" then Some 0.4
      else None)
    (fun () ->
      with_server ~client_queue:1 (fun sock ->
          with_client sock (fun c ->
              let reqs =
                List.init 3 (fun i ->
                    Protocol.request
                      ~name:(Printf.sprintf "slow%d.ml" i)
                      src_safe)
              in
              match Client.verify c reqs with
              | [ r1; r2; r3 ] ->
                  check_bool "running program verified" true
                    (expect_verified r1).Pipeline.safe;
                  check_bool "queued program verified" true
                    (expect_verified r2).Pipeline.safe;
                  ignore (expect_rejected "E_OVERLOAD" r3);
                  check_int "one program shed" 1
                    (Client.stats c).Protocol.sv_shed
              | rs ->
                  Alcotest.failf "expected 3 replies, got %d" (List.length rs))))

(* A client that sends half a frame and stalls must cost the daemon
   nothing: healthy clients connected after it are still served.  (The
   pre-reactor daemon served connections sequentially, so this exact
   scenario used to wedge it.) *)
let test_stalled_client () =
  with_server (fun sock ->
      with_client sock (fun c -> ignore (Client.stats c));
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          Protocol.send_request oc
            (Protocol.Hello
               { version = Protocol.version; stamp = Protocol.build_stamp });
          (match Protocol.recv_reply ic with
          | Protocol.Hello_ok _ -> ()
          | _ -> Alcotest.fail "stalling client's handshake failed");
          (* A header promising 4096 bytes, then silence. *)
          let partial = Bytes.of_string "\000\000\016\000stuck" in
          ignore (Unix.write fd partial 0 (Bytes.length partial) : int);
          with_client sock (fun c ->
              let replies =
                Client.verify c [ Protocol.request ~name:"ok.ml" src_safe ]
              in
              check_bool "healthy client served past a stalled one" true
                (expect_verified (List.hd replies)).Pipeline.safe)))

(* Replies leave each connection in request order even when batches
   finish out of order inside the daemon (two workers: the second, fast
   batch completes while the first is still sleeping). *)
let test_pipelined_order () =
  with_delay_for
    (fun name -> if name = "slowbatch.ml" then Some 0.5 else None)
    (fun () ->
      with_server ~jobs:2 (fun sock ->
          with_client sock (fun c ->
              Client.post c [ Protocol.request ~name:"slowbatch.ml" src_safe ];
              Client.post c [ Protocol.request ~name:"fast.ml" src_unsafe ];
              let first = expect_verified (List.hd (Client.collect c)) in
              let second = expect_verified (List.hd (Client.collect c)) in
              check_bool "first reply is the slow batch" true
                first.Pipeline.safe;
              check_bool "second reply is the fast batch" false
                second.Pipeline.safe)))

(* Shutdown drains: a solve in flight when Shutdown arrives still
   completes and its reply is flushed before the daemon exits. *)
let test_graceful_drain () =
  with_delay_for
    (fun name -> if name = "drain.ml" then Some 0.5 else None)
    (fun () ->
      with_dir (fun base ->
          let sock = Filename.concat base "d.sock" in
          let pid = start_server sock in
          let c1 = Client.connect_retry sock in
          Fun.protect
            ~finally:(fun () -> Client.close c1)
            (fun () ->
              Client.post c1 [ Protocol.request ~name:"drain.ml" src_safe ];
              (* Let the daemon pick the solve up before asking it to
                 drain. *)
              Unix.sleepf 0.1;
              with_client sock Client.shutdown;
              let r = expect_verified (List.hd (Client.collect c1)) in
              check_bool "in-flight solve answered through the drain" true
                r.Pipeline.safe);
          ignore (Unix.waitpid [] pid)))

(* The connect-retry schedule, as pure arithmetic: equal-jitter delays
   sit in [c/2, c] of an exponentially growing, capped ceiling, are
   reproducible per seed, and differ across seeds. *)
let test_backoff_schedule () =
  let base = 0.1 and cap = 2.0 in
  let delays seed = List.init 10 (Client.backoff_delay ~base ~cap ~seed) in
  let d42 = delays 42 in
  List.iteri
    (fun k d ->
      let ceiling = Float.min cap (base *. Float.pow 2. (float_of_int k)) in
      check_bool "delay at least half the ceiling" true
        (d >= (ceiling /. 2.) -. 1e-9);
      check_bool "delay at most the ceiling" true (d <= ceiling +. 1e-9))
    d42;
  check_bool "ceiling reaches the cap" true
    (List.nth d42 9 >= (cap /. 2.) -. 1e-9);
  check_bool "deterministic for a fixed seed" true (delays 42 = d42);
  check_bool "different seeds de-synchronize the herd" true (delays 7 <> d42)

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    tc "request/response round-trip" test_round_trip;
    tc "bad inputs get structured errors" test_structured_errors;
    tc "crashed worker leaves the daemon serving" test_crashed_worker;
    tc "hung worker is timed out, daemon survives" test_hung_worker;
    tc "handshake refuses a version mismatch" test_version_mismatch;
    tc "socket probe: stale files yield, live daemons keep their socket"
      test_socket_liveness;
    tc "concurrent clients are all served" test_concurrent_clients;
    tc "memory hits, then disk hits across a restart" test_memo_and_disk_hits;
    tc "identical in-flight requests coalesce onto one solve"
      test_coalescing;
    tc "global in-flight cap sheds with E_OVERLOAD" test_overload_shed;
    tc "per-client queue bound sheds with E_OVERLOAD" test_client_queue_shed;
    tc "a stalled client never blocks healthy ones" test_stalled_client;
    tc "pipelined batches reply in request order" test_pipelined_order;
    tc "shutdown drains in-flight solves" test_graceful_drain;
    tc "connect backoff is jittered, exponential, capped"
      test_backoff_schedule;
    slow "suite through warm daemon equals direct runs"
      test_suite_warm_equals_cold;
  ]
