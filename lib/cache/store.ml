(** Content-addressed, on-disk persistent store.  See the interface for
    the contract; the layout of an entry file is:

    {v
      DSOLVE-CACHE/1\n
      <stamp>\n
      <md5 hex of the fingerprint>\n
      <md5 hex of the payload>\n
      <payload length, decimal>\n
      <payload bytes>
    v}

    where the payload is [Marshal.to_string value].  The payload is
    unmarshalled only after its digest verifies, so no corruption of the
    file can crash the reader — Marshal on arbitrary bytes is unsafe,
    Marshal on bytes we wrote is not. *)

let magic = "DSOLVE-CACHE/1"

type stats = {
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable rejected : int;
  mutable writes : int;
  mutable write_errors : int;
  mutable swept : int;
}

type t = { dir : string; stamp : string; stats : stats }

let fresh_stats () =
  {
    lookups = 0;
    hits = 0;
    misses = 0;
    rejected = 0;
    writes = 0;
    write_errors = 0;
    swept = 0;
  }

(* The executable's own MD5: entries written by one build are invisible
   to every other build, so a layout change in a marshalled type can
   never be mis-read.  Computed once, at module initialisation. *)
let default_stamp =
  match Digest.to_hex (Digest.file Sys.executable_name) with
  | d -> "exe-" ^ d
  | exception _ -> "ocaml-" ^ Sys.ocaml_version

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* Temp-file name written by [store]: "<base>.bin.tmp.<pid>.<n>".
   Returns the embedded pid when [name] matches. *)
let tmp_pid (name : string) : int option =
  match String.rindex_opt name '.' with
  | None -> None
  | Some j -> (
      match String.rindex_from_opt name (j - 1) '.' with
      | exception Invalid_argument _ -> None
      | None -> None
      | Some i when i >= 4 && String.sub name (i - 4) 4 = ".tmp" -> (
          match
            ( int_of_string_opt (String.sub name (i + 1) (j - i - 1)),
              int_of_string_opt
                (String.sub name (j + 1) (String.length name - j - 1)) )
          with
          | Some pid, Some _ when pid > 0 -> Some pid
          | _ -> None)
      | Some _ -> None)

(* A writer that died between [open_out_bin] and [Sys.rename] leaves its
   temp file behind forever (the name embeds a pid and a counter, so no
   later writer ever reuses it).  A temp file is stale exactly when its
   writer is gone: probe with signal 0.  EPERM means the pid is alive but
   owned by someone else — leave it. *)
let pid_gone pid =
  match Unix.kill pid 0 with
  | () -> false
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Remove the stale temp files of one directory, counting them. *)
let sweep_tmp (t : t) (d : string) =
  match Sys.readdir d with
  | exception Sys_error _ -> ()
  | entries ->
      Array.iter
        (fun e ->
          match tmp_pid e with
          | Some pid when pid_gone pid -> (
              try
                Sys.remove (Filename.concat d e);
                t.stats.swept <- t.stats.swept + 1
              with Sys_error _ -> ())
          | _ -> ())
        entries

(* One handle (hence one stats record) per (dir, stamp) in a process, so
   a resident daemon reports cumulative cache traffic. *)
let registry : (string * string, t) Hashtbl.t = Hashtbl.create 4

let open_store ?(stamp = default_stamp) ~dir () =
  match Hashtbl.find_opt registry (dir, stamp) with
  | Some t -> t
  | None ->
      (try mkdir_p dir with _ -> ());
      let t = { dir; stamp; stats = fresh_stats () } in
      Hashtbl.replace registry (dir, stamp) t;
      t

let key t parts =
  Digest.to_hex (Digest.string (String.concat "\x00" (t.stamp :: parts)))

(* Two-level fanout, as git does, to keep directories small.  A
   namespace adds one directory level, so differently-typed payloads
   (whole-run reports, per-partition partials) never share a file even
   if their keys collide. *)
let path_of ?ns t k =
  let sub = if String.length k >= 2 then String.sub k 0 2 else "xx" in
  let root =
    match ns with None -> t.dir | Some ns -> Filename.concat t.dir ns
  in
  Filename.concat (Filename.concat root sub) (k ^ ".bin")

let input_line_opt ic = try Some (input_line ic) with End_of_file -> None
let hex_digest s = Digest.to_hex (Digest.string s)

(* Read and validate an entry's payload; any deviation yields [None]. *)
let read_payload (t : t) ~fingerprint (path : string) : string option =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match
        ( input_line_opt ic,
          input_line_opt ic,
          input_line_opt ic,
          input_line_opt ic,
          input_line_opt ic )
      with
      | Some m, Some s, Some fp_digest, Some digest, Some len_line
        when m = magic && s = t.stamp && fp_digest = hex_digest fingerprint
        -> (
          match int_of_string_opt len_line with
          | Some len when len >= 0 && len <= 1 lsl 30 -> (
              match really_input_string ic len with
              | payload when hex_digest payload = digest -> Some payload
              | _ -> None
              | exception End_of_file -> None)
          | _ -> None)
      | _ -> None)

let find (type a) ?ns t ~key ~fingerprint : a option =
  t.stats.lookups <- t.stats.lookups + 1;
  let path = path_of ?ns t key in
  if not (Sys.file_exists path) then begin
    t.stats.misses <- t.stats.misses + 1;
    None
  end
  else
    match (try read_payload t ~fingerprint path with _ -> None) with
    | Some payload ->
        (* Digest verified: these are bytes a same-build process
           marshalled, so unmarshalling is safe. *)
        t.stats.hits <- t.stats.hits + 1;
        Some (Marshal.from_string payload 0 : a)
    | None ->
        (* Stale or corrupt: drop it so the rewrite is clean. *)
        t.stats.rejected <- t.stats.rejected + 1;
        (try Sys.remove path with _ -> ());
        None

let tmp_counter = ref 0

let store ?ns t ~key ~fingerprint v =
  try
    let path = path_of ?ns t key in
    let fanout = Filename.dirname path in
    mkdir_p fanout;
    (* Temp files are only ever written into fanout directories, so
       each write sweeps the one it writes into: every write reads one
       fanout directory, about 1/256 of its namespace, and no process
       walks the whole store.  A temp file orphaned in a fanout
       directory that is never written again stays. *)
    sweep_tmp t fanout;
    let payload = Marshal.to_string v [] in
    incr tmp_counter;
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) !tmp_counter
    in
    let oc = open_out_bin tmp in
    (try
       Printf.fprintf oc "%s\n%s\n%s\n%s\n%d\n" magic t.stamp
         (hex_digest fingerprint) (hex_digest payload) (String.length payload);
       output_string oc payload;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with _ -> ());
       raise e);
    Sys.rename tmp path;
    t.stats.writes <- t.stats.writes + 1
  with _ -> t.stats.write_errors <- t.stats.write_errors + 1

let stats t = t.stats

let stats_snapshot t =
  {
    lookups = t.stats.lookups;
    hits = t.stats.hits;
    misses = t.stats.misses;
    rejected = t.stats.rejected;
    writes = t.stats.writes;
    write_errors = t.stats.write_errors;
    swept = t.stats.swept;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "lookups=%d hits=%d misses=%d rejected=%d writes=%d write-errors=%d \
     swept=%d"
    s.lookups s.hits s.misses s.rejected s.writes s.write_errors s.swept
