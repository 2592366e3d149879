(** The four workloads.  Each pass has its own set-up, so every pass of
    a run starts from the same state and does the same work: a fresh
    partition cache for [edit-warm], a fresh daemon for [daemon-mix]. *)

module Pipeline = Liquid_driver.Pipeline
module Protocol = Liquid_server.Protocol
module Server = Liquid_server.Server
module Solver = Liquid_smt.Solver
module Json = Liquid_analysis.Json

let now = Unix.gettimeofday

(** One request of a pass: when it started and its latency (seconds),
    whether every check on it passed, the work units it cost, its
    traffic class ([daemon-mix] only), and its layers (in-process
    requests only). *)
type sample = {
  start : float;
  latency : float;
  ok : bool;
  work : int;
  cls : string;
  layers : Layers.t option;
}

(** A finished pass: wall seconds, its samples, the peak RSS (kB) of the
    process that verified it (the daemon, for [daemon-mix]), how many
    pass-level consistency checks failed, and the daemon's counters over
    the pass ([daemon-mix] only). *)
type pass = {
  wall : float;
  samples : sample list;
  rss_kb : int;
  inconsistent : int;
  server : (string * float) list;
}

(** A set-up, ready for one pass.  [trace] is [run], plus whatever a
    traced pass needs to see the layers beneath a daemon. *)
type instance = {
  run : unit -> pass;
  trace : unit -> pass;
  teardown : unit -> unit;
}

type t = {
  name : string;
  nominal_pass_s : float;
      (* seconds per pass with its set-up, on the 2-core x86-64 machine
         the bounds were measured on; fixes how many passes a run makes
         for a given [--seconds], so the work of a run does not depend on
         machine speed *)
  setup : seed:int -> dir:string -> Corpus.size -> instance;
  references : seed:int -> Corpus.size -> unit;
      (* untimed per-run work every pass shares, done before the passes
         in the process that forks them *)
}

let fail fmt = Fmt.kstr (fun s -> Fmt.epr "check failed: %s@." s) fmt

(* Percentile by linear interpolation between the two nearest ranks, as
   numpy's default computes it.  Nearest-rank percentiles jump between
   neighbouring requests when their order swaps, and on workloads with
   few distinct requests neighbours can be far apart. *)
let percentile p xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let h = p *. float_of_int (Array.length a - 1) in
  let lo = int_of_float h in
  let hi = min (lo + 1) (Array.length a - 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(** Peak resident set (VmHWM, kB) of a process, ["self"] or a pid. *)
let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      go ())

(** [isolated f] runs [f] in a forked child and returns its result:
    [f] starts from this process's state and leaves it untouched. *)
let isolated (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (v : ('a, string) result) [];
      flush_all ();
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file -> Error "a child process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match v with Ok x -> x | Error e -> failwith e)

(* -- In-process verification --------------------------------------------- *)

(* A request with its pipeline options, prepared at set-up. *)
type prepared = { req : Corpus.request; options : Pipeline.options }

let prepare ?cache_dir reqs =
  List.map
    (fun (r : Corpus.request) -> { req = r; options = Corpus.options ?cache_dir r.rq })
    reqs

let answered name answer = function
  | Ok r when Corpus.satisfies answer r -> true
  | Ok r ->
      fail "%s: %a, expected %a" name Liquid_gradual.Gradual.pp_verdict
        (Corpus.verdict r) Corpus.pp_answer answer;
      false
  | Error e ->
      fail "%s: %s" name e;
      false

let checked p r = answered p.req.Corpus.rq.vq_name p.req.answer r

(* What a daemon reply must share with the in-process verification of
   its program: the report's JSON without its stats (verdict, errors,
   residuals, explanations, rendered types), and the SMT query count. *)
let observe (r : Pipeline.report) =
  let body =
    match Pipeline.json_of_report r with
    | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "stats") fields)
    | j -> j
  in
  (Json.to_string body, r.stats.n_smt_queries)

(* One verified request, as the child that verified it reports it. *)
type outcome = {
  o_ok : bool; (* the verdict matched the known answer *)
  o_obs : (string * int) option; (* when asked for *)
  o_start : float;
  o_latency : float;
  o_work : int;
  o_rss_kb : int;
  o_layers : Layers.t;
}

(* Verify one request in a fresh child of this process, from a cold SMT
   result cache.  Every request starts from the same state, so none
   benefits from an earlier one and its cost does not depend on the
   order of the pass (the process-global state of the pipeline would
   otherwise carry over: work units move by up to 0.2% with the order of
   the paper programs). *)
let verify_in_child ?(observe_reply = false) p =
  isolated (fun () ->
      Solver.clear_cache ();
      let w0 = !Solver.work_total in
      let t0 = now () in
      let r, latency, layers =
        match Layers.verify ~options:p.options ~name:p.req.Corpus.rq.vq_name p.req.rq.vq_source with
        | r, wall, l -> (Ok r, wall, l)
        | exception e -> (Error (Printexc.to_string e), now () -. t0, Layers.empty)
      in
      {
        o_ok = checked p r;
        o_obs = (if observe_reply then Result.to_option (Result.map observe r) else None);
        o_start = t0;
        o_latency = latency;
        o_work = !Solver.work_total - w0;
        o_rss_kb = vm_hwm_kb "self";
        o_layers = layers;
      })

let in_process_pass reqs =
  let t0 = now () in
  let outs = List.map verify_in_child reqs in
  {
    wall = now () -. t0;
    samples =
      List.map
        (fun o ->
          {
            start = o.o_start;
            latency = o.o_latency;
            ok = o.o_ok;
            work = o.o_work;
            cls = "";
            layers = Some o.o_layers;
          })
        outs;
    rss_kb = List.fold_left (fun m o -> max m o.o_rss_kb) 0 outs;
    inconsistent = 0;
    server = [];
  }

(* Set-up requests, checked against their known answers. *)
let verify_checked reqs =
  List.iter
    (fun p -> if not (verify_in_child p).o_ok then failwith "set-up request misjudged")
    reqs

(* Lazy initialisation (primitive environments, qualifier tables) is
   paid here, in the process every request is forked from, not by the
   first timed request. *)
let warm_up () =
  let p = List.hd (prepare [ Corpus.warmup ]) in
  let r = Pipeline.verify_string ~options:p.options ~name:p.req.rq.vq_name p.req.rq.vq_source in
  if not (checked p (Ok r)) then failwith "warm-up request misjudged"

let in_process ~requests ~seed ~dir:_ size =
  let reqs = requests ~seed size in
  List.iter Corpus.check_base reqs;
  let reqs = prepare reqs in
  warm_up ();
  let run () = in_process_pass reqs in
  { run; trace = run; teardown = ignore }

let no_references ~seed:_ _ = ()

let t1_cold =
  {
    name = "t1-cold";
    nominal_pass_s = 11.0;
    setup = in_process ~requests:Corpus.t1_cold;
    references = no_references;
  }

let diagnose =
  {
    name = "diagnose";
    nominal_pass_s = 4.0;
    setup = in_process ~requests:Corpus.diagnose;
    references = no_references;
  }

(* -- edit-warm -------------------------------------------------------------- *)

let edit_warm_setup ~seed ~dir size =
  let bases, edits = Corpus.edits ~seed size in
  List.iter Corpus.check_base bases;
  warm_up ();
  let cache = Filename.concat dir "cache" in
  verify_checked (prepare ~cache_dir:cache bases);
  let reqs = prepare ~cache_dir:cache edits in
  let run () = in_process_pass reqs in
  { run; trace = run; teardown = (fun () -> rm_rf cache) }

let edit_warm =
  {
    name = "edit-warm";
    nominal_pass_s = 4.5;
    setup = edit_warm_setup;
    references = no_references;
  }

(* -- daemon-mix -------------------------------------------------------------- *)

(* One client connection, driven over raw Protocol framing so that one
   process can multiplex two of them with [Unix.select]. *)
type conn = {
  fd : Unix.file_descr;
  reader : Protocol.reader;
  mutable inflight : int option; (* slot of the outstanding request *)
}

let send c q =
  let w = Protocol.writer_create () in
  Protocol.writer_push w (Protocol.string_of_request q);
  let rec go () =
    match Protocol.writer_step c.fd w with
    | Protocol.Flushed -> ()
    | Protocol.Again -> go ()
    | Protocol.Closed_w -> failwith "the daemon closed a connection"
  in
  go ()

(* One reply frame: each connection has at most one request outstanding. *)
let rec recv c =
  match Protocol.reader_step c.fd c.reader with
  | Protocol.Frames [ f ] -> Protocol.reply_of_string f
  | Protocol.Frames [] -> recv c
  | Protocol.Frames _ -> failwith "more than one reply outstanding"
  | Protocol.Closed -> failwith "the daemon closed a connection"

let connect sock =
  let rec attempt tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.002;
        attempt (tries - 1)
  in
  let c = { fd = attempt 5000; reader = Protocol.reader_create (); inflight = None } in
  send c (Protocol.Hello { version = Protocol.version; stamp = Protocol.build_stamp });
  match recv c with
  | Protocol.Hello_ok _ -> c
  | _ -> failwith "the daemon refused the handshake"

let server_stats c =
  send c Protocol.Stats;
  match recv c with
  | Protocol.Stats_reply s -> s
  | _ -> failwith "unexpected reply to Stats"

let reply_of = function
  | Protocol.Results [ Protocol.Verified r ] -> Ok (Pipeline.rehash_report r)
  | Protocol.Results [ Protocol.Rejected e ] ->
      Error (e.Protocol.ve_code ^ ": " ^ e.ve_message)
  | _ -> Error "unexpected reply to Verify"

(* A sent request: its class, the program it must verify like, its
   known answer, and what came back. *)
type slot = {
  s_cls : string; (* "repeat" | "fresh" | "pair" *)
  s_ref : [ `Hot of int | `Variant of int ];
  s_answer : Corpus.answer;
  s_name : string;
  s_sent : float;
  mutable s_latency : float;
  mutable s_reply : (Pipeline.report, string) result;
}

(* Send the schedule over the connections in a closed loop: a connection
   sends its next request only after its previous reply came back, and a
   pair waits until both connections are free, then goes out on both. *)
let drive conns (hot : Corpus.request array) steps =
  let slots = Hashtbl.create 256 and n = ref 0 in
  let start c cls sref (r : Corpus.request) =
    Hashtbl.replace slots !n
      {
        s_cls = cls;
        s_ref = sref;
        s_answer = r.answer;
        s_name = r.rq.vq_name;
        s_sent = now ();
        s_latency = nan;
        s_reply = Error "no reply";
      };
    send c (Protocol.Verify [ r.rq ]);
    c.inflight <- Some !n;
    incr n
  in
  let pending = ref steps in
  let rec dispatch () =
    match (!pending, List.filter (fun c -> c.inflight = None) conns) with
    | Corpus.Pair (i, v) :: rest, ([ _; _ ] as both) ->
        pending := rest;
        List.iter (fun c -> start c "pair" (`Variant i) v) both;
        dispatch ()
    | Corpus.Repeat i :: rest, c :: _ ->
        pending := rest;
        start c "repeat" (`Hot i) hot.(i);
        dispatch ()
    | Corpus.Fresh (i, v) :: rest, c :: _ ->
        pending := rest;
        start c "fresh" (`Variant i) v;
        dispatch ()
    | _ -> ()
  in
  dispatch ();
  let busy () = List.filter (fun c -> c.inflight <> None) conns in
  while busy () <> [] do
    let ready =
      match Unix.select (List.map (fun c -> c.fd) (busy ())) [] [] (-1.0) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun c ->
        if List.mem c.fd ready then
          match Protocol.reader_step c.fd c.reader with
          | Protocol.Frames [] -> ()
          | Protocol.Frames [ f ] ->
              let s = Hashtbl.find slots (Option.get c.inflight) in
              s.s_latency <- now () -. s.s_sent;
              s.s_reply <- reply_of (Protocol.reply_of_string f);
              c.inflight <- None
          | Protocol.Frames _ -> failwith "more than one reply outstanding"
          | Protocol.Closed -> failwith "the daemon closed a connection")
      (busy ());
    dispatch ()
  done;
  List.init !n (Hashtbl.find slots)

(* Verification of each distinct program the daemon serves, once per
   run, each in a fresh child of this process as the daemon's workers
   are fresh children of the daemon: the observation every reply must
   equal, and the work units a worker would spend on it.  The workers'
   own counters die with them, so [daemon-mix]'s work units are these,
   summed over the schedule's cold solves: derived, not measured on the
   daemon. *)
let references : (string, (string * int) option * int) Hashtbl.t = Hashtbl.create 32

let reference (r : Corpus.request) =
  let key =
    Pipeline.request_key ~options:(Corpus.options r.rq) ~name:r.rq.vq_name r.rq.vq_source
  in
  match Hashtbl.find_opt references key with
  | Some x -> x
  | None ->
      let o = verify_in_child ~observe_reply:true (List.hd (prepare [ r ])) in
      let x = (o.o_obs, o.o_work) in
      Hashtbl.replace references key x;
      x

let daemon_setup ~seed ~dir size =
  let hot, variants, steps = Corpus.daemon_mix ~seed size in
  List.iter Corpus.check_base hot;
  let hot = Array.of_list hot and variants = Array.of_list variants in
  (* Relative, so the path stays under the socket-name limit wherever
     the checkout lives. *)
  let sock = Filename.concat dir "d.sock" in
  flush_all ();
  let pid =
    match Unix.fork () with
    | 0 ->
        (try Server.serve { (Server.default_config ~sock) with jobs = 2; quiet = true }
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  let conns = ref [] in
  let stop () =
    (match !conns with
    | c :: _ -> (
        try
          send c Protocol.Shutdown;
          ignore (recv c)
        with _ -> Unix.kill pid Sys.sigkill)
    | [] -> Unix.kill pid Sys.sigkill);
    List.iter (fun c -> Unix.close c.fd) !conns;
    ignore (Unix.waitpid [] pid)
  in
  match
    conns := [ connect sock; connect sock ];
    let c = List.hd !conns in
    (* The hot set: solved once here, memo hits in the pass. *)
    Array.iter
      (fun (r : Corpus.request) ->
        send c (Protocol.Verify [ r.rq ]);
        if not (answered r.rq.vq_name r.answer (reply_of (recv c))) then
          failwith "set-up request misjudged")
      hot;
    server_stats c
  with
  | exception e ->
      stop ();
      raise e
  | s0 ->
      let c = List.hd !conns in
      let run () =
        let t0 = now () in
        let slots = drive !conns hot steps in
        let wall = now () -. t0 in
        let s1 = server_stats c in
        let rss = vm_hwm_kb (string_of_int pid) in
        let count cls = List.length (List.filter (fun s -> s.s_cls = cls) slots) in
        let pairs = count "pair" / 2 in
        let expect =
          [
            ("memo hits", s1.sv_mem_hits - s0.sv_mem_hits, count "repeat");
            ("cold solves", s1.sv_cold - s0.sv_cold, count "fresh" + pairs);
            ("coalesced", s1.sv_coalesced - s0.sv_coalesced, pairs);
            ("failures", s1.sv_failures - s0.sv_failures, 0);
          ]
        in
        let inconsistent =
          List.fold_left
            (fun acc (what, got, want) ->
              if got <> want then fail "daemon %s: %d, expected %d" what got want;
              acc + abs (got - want))
            0 expect
        in
        (* Every reply must equal the in-process verification of its
           program; a fresh request and the first of a pair cost a cold
           solve, a repeat and the second of a pair cost none. *)
        let seen_pair = Hashtbl.create 16 in
        let samples =
          List.map
            (fun s ->
              let program = match s.s_ref with `Hot i -> hot.(i) | `Variant i -> variants.(i) in
              let expected, work = reference program in
              let same =
                match (s.s_reply, expected) with
                | Ok r, Some o when observe r = o -> true
                | Ok _, Some _ ->
                    fail "%s: the daemon's reply differs from in-process verification"
                      s.s_name;
                    false
                | _ -> false
              in
              let work =
                match s.s_cls with
                | "fresh" -> work
                | "pair" when not (Hashtbl.mem seen_pair s.s_ref) ->
                    Hashtbl.add seen_pair s.s_ref ();
                    work
                | _ -> 0
              in
              {
                start = s.s_sent;
                latency = s.s_latency;
                ok = answered s.s_name s.s_answer s.s_reply && same;
                work;
                cls = s.s_cls;
                layers = None;
              })
            slots
        in
        let median_ms cls =
          let xs = List.filter (fun s -> s.cls = cls) samples in
          1000.0 *. median (List.map (fun s -> s.latency) xs)
        in
        {
          wall;
          samples;
          rss_kb = rss;
          inconsistent;
          server =
            [
              ("server.memo_ms_p50", median_ms "repeat");
              ("server.cold_ms_p50", median_ms "fresh");
              ("server.cold", float_of_int (s1.sv_cold - s0.sv_cold));
              ("server.mem_hits", float_of_int (s1.sv_mem_hits - s0.sv_mem_hits));
              ("server.coalesced", float_of_int (s1.sv_coalesced - s0.sv_coalesced));
              ("server.shed", float_of_int (s1.sv_shed - s0.sv_shed));
              ("server.failures", float_of_int (s1.sv_failures - s0.sv_failures));
            ];
        }
      in
      {
        run;
        trace =
          (fun () ->
            let p = run () in
            (* The layers beneath the daemon: each distinct program it
               serves, verified once in-process. *)
            let t = in_process_pass (prepare (Array.to_list hot @ Array.to_list variants)) in
            { p with samples = p.samples @ t.samples });
        teardown = stop;
      }

let daemon_mix =
  {
    name = "daemon-mix";
    nominal_pass_s = 6.5;
    setup = daemon_setup;
    references =
      (fun ~seed size ->
        let hot, variants, _ = Corpus.daemon_mix ~seed size in
        List.iter (fun r -> ignore (reference r)) (hot @ variants));
  }

let all = [ t1_cold; diagnose; edit_warm; daemon_mix ]
