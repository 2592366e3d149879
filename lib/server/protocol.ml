(* v3: server_stats grew the multi-tenant counters (coalesced solves,
   shed requests, connection gauges) when the daemon became a
   multiplexed reactor.
   v4: verify_request grew vq_gradual (gradual liquid mode), and the
   report layout grew residual casts. *)
let version = 4
let build_stamp = Liquid_cache.Store.default_stamp

type verify_request = {
  vq_name : string;
  vq_source : string;
  vq_qual_text : string;
  vq_use_defaults : bool;
  vq_list_quals : bool;
  vq_spec_text : string;
  vq_mine : bool;
  vq_lint : bool;
  vq_incremental : bool; (* ignored *)
  vq_explain : bool;
  vq_explain_limit : int;
  vq_gradual : bool;
}

let request ?(qual_text = "") ?(use_defaults = true) ?(list_quals = false)
    ?(spec_text = "") ?(mine = true) ?(lint = false) ?(explain = false)
    ?(explain_limit = 5) ?(gradual = false) ~name source =
  {
    vq_name = name;
    vq_source = source;
    vq_qual_text = qual_text;
    vq_use_defaults = use_defaults;
    vq_list_quals = list_quals;
    vq_spec_text = spec_text;
    vq_mine = mine;
    vq_lint = lint;
    vq_incremental = true;
    vq_explain = explain;
    vq_explain_limit = explain_limit;
    vq_gradual = gradual;
  }

type verify_error = { ve_code : string; ve_message : string }

type verify_reply =
  | Verified of Liquid_driver.Pipeline.report
  | Rejected of verify_error

type server_stats = {
  sv_requests : int;
  sv_programs : int;
  sv_mem_hits : int;
  sv_disk_hits : int;
  sv_cold : int;
  sv_coalesced : int;
  sv_shed : int;
  sv_failures : int;
  sv_connections : int;
  sv_uptime : float;
  sv_cache : Liquid_cache.Store.stats option;
}

type request =
  | Hello of { version : int; stamp : string }
  | Verify of verify_request list
  | Stats
  | Shutdown

type reply =
  | Hello_ok of { version : int; stamp : string }
  | Results of verify_reply list
  | Stats_reply of server_stats
  | Bye
  | Protocol_error of string

(* Framing: a 4-byte big-endian length followed by that many bytes of
   Marshal output.  The cap bounds what a confused or malicious peer can
   make us allocate; real batches are far below it. *)

let max_frame = 256 * 1024 * 1024

let send_frame oc (s : string) =
  output_binary_int oc (String.length s);
  output_string oc s;
  flush oc

let recv_frame ic =
  let n = input_binary_int ic in
  if n < 0 || n > max_frame then
    failwith (Printf.sprintf "protocol: bad frame length %d" n);
  really_input_string ic n

let string_of_request (q : request) = Marshal.to_string q []

let request_of_string (s : string) : request =
  match Marshal.from_string s 0 with
  | q -> q
  | exception Failure _ -> failwith "protocol: malformed request frame"

let string_of_reply (r : reply) = Marshal.to_string r []

let reply_of_string (s : string) : reply =
  match Marshal.from_string s 0 with
  | r -> r
  | exception Failure _ -> failwith "protocol: malformed reply frame"

let send_request oc (q : request) = send_frame oc (string_of_request q)
let recv_reply ic : reply = reply_of_string (recv_frame ic)

(* ------------------------------------------------------------------ *)
(* Incremental framing over non-blocking descriptors                   *)

(* The reactor never issues a read or write that can block: a client
   dribbling a frame one byte a minute costs the daemon nothing but the
   buffered bytes.  [reader]/[writer] hold the partial state between
   readiness events. *)

let chunk_size = 65536

type reader = { mutable buf : Bytes.t; mutable len : int }

let reader_create () = { buf = Bytes.create chunk_size; len = 0 }

let header_length (b : Bytes.t) =
  (* Big-endian, matching [output_binary_int]/[input_binary_int]. *)
  (Char.code (Bytes.get b 0) lsl 24)
  lor (Char.code (Bytes.get b 1) lsl 16)
  lor (Char.code (Bytes.get b 2) lsl 8)
  lor Char.code (Bytes.get b 3)

(* Split every complete frame out of [r]'s buffer, in arrival order. *)
let drain_frames (r : reader) : string list =
  let frames = ref [] in
  let ok = ref true in
  while !ok && r.len >= 4 do
    let n = header_length r.buf in
    if n < 0 || n > max_frame then
      failwith (Printf.sprintf "protocol: bad frame length %d" n)
    else if r.len >= 4 + n then begin
      frames := Bytes.sub_string r.buf 4 n :: !frames;
      Bytes.blit r.buf (4 + n) r.buf 0 (r.len - 4 - n);
      r.len <- r.len - 4 - n
    end
    else ok := false
  done;
  List.rev !frames

type read_event =
  | Frames of string list (* complete frames, possibly none yet *)
  | Closed (* orderly EOF or a hard connection error *)

(** One [read(2)] on the (non-blocking) descriptor, folded into the
    reader.  @raise Failure on an oversized or negative frame length —
    the connection is unrecoverable past that point. *)
let reader_step fd (r : reader) : read_event =
  if Bytes.length r.buf - r.len < chunk_size then begin
    let need = r.len + chunk_size in
    let cap = ref (Bytes.length r.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit r.buf 0 b 0 r.len;
    r.buf <- b
  end;
  match Unix.read fd r.buf r.len chunk_size with
  | 0 -> Closed
  | n ->
      r.len <- r.len + n;
      Frames (drain_frames r)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      Frames []
  | exception Unix.Unix_error _ -> Closed

type writer = {
  queue : string Queue.t; (* head is partially written up to [off] *)
  mutable off : int;
}

let writer_create () = { queue = Queue.create (); off = 0 }

let writer_push (w : writer) (payload : string) =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Queue.add (Bytes.unsafe_to_string b) w.queue

let writer_pending (w : writer) = not (Queue.is_empty w.queue)

type write_event =
  | Flushed (* nothing left to write *)
  | Again (* the descriptor stopped accepting bytes; more remains *)
  | Closed_w (* the peer is gone *)

(** Write as much as the (non-blocking) descriptor accepts. *)
let writer_step fd (w : writer) : write_event =
  let rec go () =
    match Queue.peek_opt w.queue with
    | None -> Flushed
    | Some s -> (
        let remaining = String.length s - w.off in
        match Unix.write_substring fd s w.off remaining with
        | n ->
            if n = remaining then begin
              ignore (Queue.pop w.queue);
              w.off <- 0;
              go ()
            end
            else begin
              w.off <- w.off + n;
              Again
            end
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            Again
        | exception Unix.Unix_error _ -> Closed_w)
  in
  go ()
