(* Tests for the persistent result cache: store round-trips, hygiene
   (stale stamps, wrong fingerprints, corrupt and truncated entries all
   fall back to a cold run), pipeline integration, and the per-run
   solver-state reset that keeps warm processes honest. *)

module Store = Liquid_cache.Store
module Pipeline = Liquid_driver.Pipeline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let dir_counter = ref 0

(* A fresh directory per test: store handles (and their counters) are
   memoized per directory, so reuse would leak state across tests. *)
let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dsolve-cache-test-%d-%d" (Unix.getpid ()) !dir_counter)
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

(* Whole-run report entries only: partition-level entries live in the
   "punit" namespace (an extra directory level) and are not counted. *)
let report_entries dir =
  List.concat_map
    (fun f ->
      let p = Filename.concat dir f in
      if f = "punit" then []
      else if Sys.is_directory p then files_under p
      else [ p ])
    (Array.to_list (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Store basics                                                        *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  with_dir (fun dir ->
      let st = Store.open_store ~dir () in
      let key = Store.key st [ "prog"; "source text" ] in
      let fingerprint = "opts/v1" in
      check_bool "empty store misses" true
        (Store.find st ~key ~fingerprint = (None : string option));
      Store.store st ~key ~fingerprint "the result";
      (match Store.find st ~key ~fingerprint with
      | Some v -> check_string "round-trips the value" "the result" v
      | None -> Alcotest.fail "stored entry should be found");
      let s = Store.stats st in
      check_int "two lookups" 2 s.Store.lookups;
      check_int "one hit" 1 s.Store.hits;
      check_int "one miss" 1 s.Store.misses;
      check_int "one write" 1 s.Store.writes;
      check_int "nothing rejected" 0 s.Store.rejected)

let test_structured_value () =
  with_dir (fun dir ->
      let st = Store.open_store ~dir () in
      let key = Store.key st [ "structured" ] in
      let v = [ (1, "one", [| true; false |]); (2, "two", [| false |]) ] in
      Store.store st ~key ~fingerprint:"f" v;
      check_bool "structured value round-trips" true
        (Store.find st ~key ~fingerprint:"f" = Some v))

let test_fingerprint_mismatch () =
  with_dir (fun dir ->
      let st = Store.open_store ~dir () in
      let key = Store.key st [ "prog" ] in
      Store.store st ~key ~fingerprint:"options/v1" 42;
      check_bool "wrong fingerprint misses" true
        (Store.find st ~key ~fingerprint:"options/v2" = (None : int option));
      check_int "mismatch counted as rejected" 1 (Store.stats st).Store.rejected;
      (* The stale entry is dropped, so even the right fingerprint now
         misses — the caller re-solves and rewrites. *)
      check_bool "stale entry was removed" true
        (Store.find st ~key ~fingerprint:"options/v1" = (None : int option)))

let test_stamp_mismatch () =
  with_dir (fun dir ->
      let writer = Store.open_store ~stamp:"build-A" ~dir () in
      let key = Store.key writer [ "prog" ] in
      Store.store writer ~key ~fingerprint:"f" 42;
      (* A different build must not see the entry (and, since keys are
         salted with the stamp, normally computes a different key; probe
         the same file deliberately). *)
      let reader = Store.open_store ~stamp:"build-B" ~dir () in
      check_bool "other build rejects the entry" true
        (Store.find reader ~key ~fingerprint:"f" = (None : int option));
      check_int "stamp mismatch counted as rejected" 1
        (Store.stats reader).Store.rejected;
      check_bool "keys are salted with the stamp" true
        (Store.key writer [ "prog" ] <> Store.key reader [ "prog" ]))

let corrupt_last_byte path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  let b = Bytes.of_string content in
  Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_corruption_and_truncation () =
  with_dir (fun dir ->
      let st = Store.open_store ~dir () in
      let key = Store.key st [ "prog" ] in
      let entry () =
        match report_entries dir with
        | [ p ] -> p
        | files ->
            Alcotest.failf "expected exactly one entry file, found %d"
              (List.length files)
      in
      (* Flipped payload byte: digest check rejects, reader survives. *)
      Store.store st ~key ~fingerprint:"f" (Some [ 1; 2; 3 ]);
      corrupt_last_byte (entry ());
      check_bool "corrupt entry rejected" true
        (Store.find st ~key ~fingerprint:"f" = (None : int list option option));
      (* Truncated file: ditto. *)
      Store.store st ~key ~fingerprint:"f" (Some [ 1; 2; 3 ]);
      let p = entry () in
      let oc = open_out_gen [ Open_wronly ] 0o644 p in
      Unix.ftruncate (Unix.descr_of_out_channel oc) 20;
      close_out oc;
      check_bool "truncated entry rejected" true
        (Store.find st ~key ~fingerprint:"f" = (None : int list option option));
      (* Garbage from scratch: not even a header. *)
      Store.store st ~key ~fingerprint:"f" (Some [ 1; 2; 3 ]);
      let oc = open_out_bin (entry ()) in
      output_string oc "this is not a cache entry";
      close_out oc;
      check_bool "garbage entry rejected" true
        (Store.find st ~key ~fingerprint:"f" = (None : int list option option));
      check_int "all three rejections counted" 3
        (Store.stats st).Store.rejected;
      (* After a rewrite the entry serves again. *)
      Store.store st ~key ~fingerprint:"f" (Some [ 1; 2; 3 ]);
      check_bool "rewritten entry serves" true
        (Store.find st ~key ~fingerprint:"f" = Some (Some [ 1; 2; 3 ])))

let test_unwritable_dir () =
  (* Writes into an impossible root are swallowed; lookups miss. *)
  let st =
    Store.open_store ~dir:"/dev/null/not-a-directory/cache" ()
  in
  let key = Store.key st [ "prog" ] in
  Store.store st ~key ~fingerprint:"f" 42;
  check_bool "write failure swallowed" true
    ((Store.stats st).Store.write_errors > 0);
  check_bool "lookup just misses" true
    (Store.find st ~key ~fingerprint:"f" = (None : int option))

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                *)
(* ------------------------------------------------------------------ *)

let src_safe =
  "let rec sum k =\n\
  \  if k < 0 then 0\n\
  \  else begin\n\
  \    let s = sum (k - 1) in\n\
  \    s + k\n\
  \  end"

(* All items are named: anonymous items get gensym'd names, whose
   stamps drift across repeated in-process runs and would spoil the
   byte-for-byte report comparisons below. *)
let src_unsafe = "let a = Array.make 5 0\nlet bad = a.(7)"

let report_fingerprint (r : Pipeline.report) =
  Fmt.str "safe=%b errors=[%a] types=[%a]" r.Pipeline.safe
    Fmt.(list ~sep:(any ";") Pipeline.pp_error)
    r.Pipeline.errors
    Fmt.(
      list ~sep:(any ";") (fun ppf (x, t) ->
          Fmt.pf ppf "%a : %a" Liquid_common.Ident.pp x Liquid_infer.Rtype.pp
            (Liquid_infer.Report.display t)))
    r.Pipeline.item_types

let test_pipeline_cold_then_hit () =
  with_dir (fun dir ->
      let options = { Pipeline.default with Pipeline.cache_dir = Some dir } in
      let cold = Pipeline.verify_string ~options ~name:"sum.ml" src_safe in
      check_int "cold run probes the cache" 1
        cold.Pipeline.stats.Pipeline.n_pcache_lookups;
      check_int "cold run misses" 0 cold.Pipeline.stats.Pipeline.n_pcache_hits;
      let warm = Pipeline.verify_string ~options ~name:"sum.ml" src_safe in
      check_int "warm run hits" 1 warm.Pipeline.stats.Pipeline.n_pcache_hits;
      check_string "warm report identical to cold" (report_fingerprint cold)
        (report_fingerprint warm);
      (* A different program in the same store is a separate entry. *)
      let other = Pipeline.verify_string ~options ~name:"bad.ml" src_unsafe in
      check_int "different source misses" 0
        other.Pipeline.stats.Pipeline.n_pcache_hits;
      check_bool "and is genuinely re-verified" false other.Pipeline.safe)

let test_pipeline_key_sensitivity () =
  with_dir (fun dir ->
      let options = { Pipeline.default with Pipeline.cache_dir = Some dir } in
      ignore (Pipeline.verify_string ~options ~name:"a.ml" src_safe);
      (* Same source under a different name: the entry must not be
         shared — cached error locations embed the file name. *)
      let renamed = Pipeline.verify_string ~options ~name:"b.ml" src_safe in
      check_int "different name misses" 0
        renamed.Pipeline.stats.Pipeline.n_pcache_hits;
      (* Same source under different qualifiers: fingerprint differs. *)
      let opts' =
        {
          options with
          Pipeline.quals =
            Liquid_infer.Qualifier.defaults
            @ Liquid_infer.Qualifier.parse_string "qualif Neg(v) : v < 0";
        }
      in
      check_bool "fingerprints differ across qualifier sets" true
        (Pipeline.options_fingerprint options
        <> Pipeline.options_fingerprint opts');
      let requalified = Pipeline.verify_string ~options:opts' ~name:"a.ml" src_safe in
      check_int "different qualifiers miss" 0
        requalified.Pipeline.stats.Pipeline.n_pcache_hits)

(* The satellite bugfix scenario end to end: a cache entry corrupted on
   disk is ignored and rewritten, and the verdict matches a cold run
   exactly. *)
let test_pipeline_corrupt_entry_recovers () =
  with_dir (fun dir ->
      let options = { Pipeline.default with Pipeline.cache_dir = Some dir } in
      let cold = Pipeline.verify_string ~options ~name:"bad.ml" src_unsafe in
      check_bool "program is unsafe" false cold.Pipeline.safe;
      let entry =
        match report_entries dir with
        | [ p ] -> p
        | files ->
            Alcotest.failf "expected exactly one entry file, found %d"
              (List.length files)
      in
      corrupt_last_byte entry;
      let recovered = Pipeline.verify_string ~options ~name:"bad.ml" src_unsafe in
      check_int "corrupt entry does not hit" 0
        recovered.Pipeline.stats.Pipeline.n_pcache_hits;
      (* The whole-run entry was corrupted, not the partition entries:
         the re-solve reuses every solved unit from the partition
         cache. *)
      check_bool "re-solve reuses cached partitions" true
        (recovered.Pipeline.stats.Pipeline.n_punit_hits > 0);
      check_string "verdict identical to the cold run"
        (report_fingerprint cold)
        (report_fingerprint recovered);
      (* The recovery rewrote the entry: next lookup hits again. *)
      let warm = Pipeline.verify_string ~options ~name:"bad.ml" src_unsafe in
      check_int "rewritten entry hits" 1
        warm.Pipeline.stats.Pipeline.n_pcache_hits;
      check_string "served verdict still identical"
        (report_fingerprint cold)
        (report_fingerprint warm))

(* ------------------------------------------------------------------ *)
(* Partition-level incremental re-verification                         *)
(* ------------------------------------------------------------------ *)

(* Two independent functions, each with a branch join so subtyping
   constraints actually materialize (a straight-line body flows its
   type directly and owns no subs to edit).  The edit below touches
   only [shift]'s else-arm, through a non-compared literal (1 → 2):
   arm values are not mined into qualifier constants, so [double]'s
   constraints, qualifier instances, and (absent) upstream dependencies
   are all unchanged and its unit keys are stable.  An edit to a
   {e compared} literal would change the mined constant set — a global
   qualifier input — and honestly miss every unit. *)
let src_two_v1 =
  "let double x = if x > 0 then x + x else 0\n\
   let shift y = if y > 0 then y + 3 else 1"

let src_two_v2 =
  "let double x = if x > 0 then x + x else 0\n\
   let shift y = if y > 0 then y + 3 else 2"

(* Same source re-verified when only the whole-run entry is gone: every
   partition key matches and nothing re-solves. *)
let test_punit_key_stability () =
  with_dir (fun dir ->
      let options = { Pipeline.default with Pipeline.cache_dir = Some dir } in
      let cold = Pipeline.verify_string ~options ~name:"two.ml" src_two_v1 in
      check_int "cold run has no partition hits" 0
        cold.Pipeline.stats.Pipeline.n_punit_hits;
      check_bool "cold run solves every unit live" true
        (cold.Pipeline.stats.Pipeline.n_punit_misses
        = cold.Pipeline.stats.Pipeline.n_partitions
        && cold.Pipeline.stats.Pipeline.n_partitions > 0);
      List.iter Sys.remove (report_entries dir);
      let warm = Pipeline.verify_string ~options ~name:"two.ml" src_two_v1 in
      check_int "whole-run entry is gone" 0
        warm.Pipeline.stats.Pipeline.n_pcache_hits;
      check_int "every unit reused" cold.Pipeline.stats.Pipeline.n_punit_misses
        warm.Pipeline.stats.Pipeline.n_punit_hits;
      check_int "nothing re-solved" 0
        warm.Pipeline.stats.Pipeline.n_punit_misses;
      check_string "report identical to the cold run"
        (report_fingerprint cold) (report_fingerprint warm))

(* A one-function edit re-solves only the edited cone; the report still
   matches a cache-less verification byte for byte.  Exercised at
   [jobs = 1] (in-process sequential) and [jobs = 4] (forked workers +
   dispatch-time reuse). *)
let test_punit_cone_reuse jobs () =
  with_dir (fun dir ->
      let options =
        {
          Pipeline.default with
          Pipeline.cache_dir = Some dir;
          Pipeline.jobs = jobs;
        }
      in
      ignore (Pipeline.verify_string ~options ~name:"two.ml" src_two_v1);
      let warm = Pipeline.verify_string ~options ~name:"two.ml" src_two_v2 in
      check_int "edited source misses the whole-run cache" 0
        warm.Pipeline.stats.Pipeline.n_pcache_hits;
      check_bool "unedited partition reused" true
        (warm.Pipeline.stats.Pipeline.n_punit_hits >= 1);
      check_bool "edited cone re-solved" true
        (warm.Pipeline.stats.Pipeline.n_punit_misses >= 1);
      let reference =
        Pipeline.verify_string
          ~options:{ options with Pipeline.cache_dir = None }
          ~name:"two.ml" src_two_v2
      in
      check_string "report identical to an uncached run"
        (report_fingerprint reference)
        (report_fingerprint warm))

(* Reports do not depend on scheduling, so neither does the whole-run
   key: a report solved over four workers is a hit for a sequential run
   and equals a cold, cache-less sequential report. *)
let test_jobs_share_entries () =
  let src = Test_gradual.sharded_src in
  with_dir (fun dir ->
      let options jobs partition_timeout =
        {
          Pipeline.default with
          Pipeline.jobs;
          partition_timeout;
          cache_dir = Some dir;
        }
      in
      let sequential = options 1 None in
      List.iter
        (fun (jobs, timeout) ->
          check_string
            (Fmt.str "fingerprint ignores jobs=%d and the timeout" jobs)
            (Pipeline.options_fingerprint sequential)
            (Pipeline.options_fingerprint (options jobs timeout)))
        [ (1, Some 30.); (2, None); (4, Some 0.2); (4, Some 30.) ];
      let sharded =
        Pipeline.verify_string
          ~options:(options 4 (Some 30.))
          ~name:"sharded.ml" src
      in
      check_bool "program shards" true
        (sharded.Pipeline.stats.Pipeline.n_partitions > 1);
      check_bool "program fails" false sharded.Pipeline.safe;
      let warm =
        Pipeline.verify_string ~options:sequential ~name:"sharded.ml" src
      in
      check_int "jobs=1 run hits the jobs=4 entry" 1
        warm.Pipeline.stats.Pipeline.n_pcache_hits;
      let cold =
        Pipeline.verify_string
          ~options:{ sequential with Pipeline.cache_dir = None }
          ~name:"sharded.ml" src
      in
      check_string "served report equals a cold sequential run"
        (Test_partition.report_json cold)
        (Test_partition.report_json warm))

(* Partition keys do not depend on what the process verified before.
   Unresolved type variables reach the unit signatures, so their ids
   must restart per run: a process that verified another program, then
   the base, then an edit must reuse exactly the units a fresh process
   reuses for the same edit.  The appended function brings κs of its
   own and leaves every unit of the base unchanged. *)
let appended_fn = "\nlet edit_clamp z = if z > 0 then z else 0\n"

(* Run [f] in a forked child and return its result: the child starts
   from this process's state, and whatever it changes dies with it. *)
let in_child (f : unit -> int) : int =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let n = try f () with _ -> -1 in
      let oc = Unix.out_channel_of_descr wr in
      output_string oc (string_of_int n);
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let n = int_of_string (input_line ic) in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      n

let test_punit_warm_process () =
  let module Programs = Liquid_suite.Programs in
  ignore (Liquid_suite.Runner.verify ~jobs:1 Programs.isort);
  List.iter
    (fun (b : Programs.benchmark) ->
      let edit = b.Programs.source ^ appended_fn in
      let verify dir src =
        let options =
          {
            Pipeline.default with
            Pipeline.quals = Liquid_suite.Runner.qualifiers_of b;
            mine = false;
            cache_dir = Some dir;
          }
        in
        Pipeline.verify_string ~options ~name:b.Programs.name src
      in
      let hits (r : Pipeline.report) = r.Pipeline.stats.Pipeline.n_punit_hits in
      let fresh =
        with_dir (fun dir ->
            ignore (in_child (fun () -> hits (verify dir b.Programs.source)));
            in_child (fun () -> hits (verify dir edit)))
      in
      let warm =
        with_dir (fun dir ->
            ignore (verify dir b.Programs.source);
            hits (verify dir edit))
      in
      check_bool
        (Fmt.str "%s: a fresh process reuses units" b.Programs.name)
        true (fresh > 0);
      check_int
        (Fmt.str "%s: a warm process reuses what a fresh one does"
           b.Programs.name)
        fresh warm)
    [ Programs.bcopy; Programs.gauss ]

(* Stale tmp files (left by a crashed writer) are swept when a store
   handle is created; a live writer's tmp file is left alone. *)
let test_tmp_sweep () =
  with_dir (fun dir ->
      let st = Store.open_store ~stamp:"sweep-A" ~dir () in
      let key = Store.key st [ "prog" ] in
      Store.store st ~key ~fingerprint:"f" 42;
      let fan =
        match report_entries dir with
        | [ p ] -> Filename.dirname p
        | files ->
            Alcotest.failf "expected exactly one entry file, found %d"
              (List.length files)
      in
      (* A pid that is certainly dead: a child we already reaped. *)
      let dead_pid =
        match Unix.fork () with
        | 0 -> Unix._exit 0
        | pid ->
            ignore (Unix.waitpid [] pid);
            pid
      in
      let stale =
        Filename.concat fan (Printf.sprintf "x.bin.tmp.%d.0" dead_pid)
      in
      let live =
        Filename.concat fan (Printf.sprintf "y.bin.tmp.%d.0" (Unix.getpid ()))
      in
      List.iter
        (fun p ->
          let oc = open_out_bin p in
          output_string oc "partial write";
          close_out oc)
        [ stale; live ];
      (* Handles are memoized per (dir, stamp): a different stamp forces
         a genuinely fresh handle, whose creation sweeps. *)
      let st2 = Store.open_store ~stamp:"sweep-B" ~dir () in
      check_bool "stale tmp file removed" false (Sys.file_exists stale);
      check_bool "live writer's tmp file kept" true (Sys.file_exists live);
      check_int "sweep counted" 1 (Store.stats st2).Store.swept;
      check_bool "entries survive the sweep" true
        (Store.find st ~key ~fingerprint:"f" = Some 42);
      Sys.remove live)

let test_no_cache_dir_no_probes () =
  let r = Pipeline.verify_string ~name:"sum.ml" src_safe in
  check_int "no cache dir, no lookups" 0
    r.Pipeline.stats.Pipeline.n_pcache_lookups;
  check_int "no cache dir, no hits" 0 r.Pipeline.stats.Pipeline.n_pcache_hits

(* ------------------------------------------------------------------ *)
(* Per-run solver-state reset                                          *)
(* ------------------------------------------------------------------ *)

let test_reset_run_state () =
  Liquid_smt.Dpll.models_total := 123;
  Liquid_smt.Theory.nlits_total := 45;
  Liquid_smt.Simplex.npivots := 67;
  Liquid_smt.Lia.nnodes_total := 89;
  Liquid_smt.Solver.reset_run_state ();
  check_int "DPLL models cleared" 0 !Liquid_smt.Dpll.models_total;
  check_int "theory literals cleared" 0 !Liquid_smt.Theory.nlits_total;
  check_int "simplex pivots cleared" 0 !Liquid_smt.Simplex.npivots;
  check_int "LIA nodes cleared" 0 !Liquid_smt.Lia.nnodes_total

(* A safe run in between must not change what an unsafe program
   reports: the same errors, counterexamples included (the daemon
   scenario, in-process). *)
let test_pipeline_resets_cex () =
  let bad = Pipeline.verify_string ~name:"bad.ml" src_unsafe in
  check_bool "unsafe run produced errors" true (bad.Pipeline.errors <> []);
  check_bool "unsafe run produced a counterexample" true
    (List.exists (fun e -> e.Pipeline.err_cex <> []) bad.Pipeline.errors);
  let good = Pipeline.verify_string ~name:"sum.ml" src_safe in
  check_bool "clean run reports no errors" true (good.Pipeline.errors = []);
  let again = Pipeline.verify_string ~name:"bad.ml" src_unsafe in
  check_bool "re-verified, the same errors and counterexamples" true
    (again.Pipeline.errors = bad.Pipeline.errors)

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "store round-trips a value" test_round_trip;
    tc "store round-trips structured values" test_structured_value;
    tc "wrong fingerprint rejects and removes" test_fingerprint_mismatch;
    tc "wrong build stamp rejects" test_stamp_mismatch;
    tc "corrupt and truncated entries reject safely"
      test_corruption_and_truncation;
    tc "unwritable store degrades to a no-op" test_unwritable_dir;
    tc "pipeline: cold run then cache hit" test_pipeline_cold_then_hit;
    tc "pipeline: key covers name and qualifiers" test_pipeline_key_sensitivity;
    tc "pipeline: corrupt entry falls back and rewrites"
      test_pipeline_corrupt_entry_recovers;
    tc "punit: unchanged partitions all reuse" test_punit_key_stability;
    tc "punit: edit re-solves only its cone (jobs=1)"
      (test_punit_cone_reuse 1);
    tc "punit: edit re-solves only its cone (jobs=4)"
      (test_punit_cone_reuse 4);
    tc "pipeline: a jobs=4 report is a jobs=1 hit" test_jobs_share_entries;
    tc "punit: a warm process reuses what a fresh one does"
      test_punit_warm_process;
    tc "store sweeps stale tmp files" test_tmp_sweep;
    tc "pipeline: no cache dir means no probes" test_no_cache_dir_no_probes;
    tc "reset_run_state clears answer state" test_reset_run_state;
    tc "pipeline runs start with clean solver state" test_pipeline_resets_cex;
  ]
