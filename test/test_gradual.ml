(* Tests for gradual liquid mode: the verdict spectrum
   (SAFE / SAFE_MODULO / UNSAFE), residual identity and determinism
   across job counts, cache temperatures, and the daemon, runtime casts
   through the reference interpreter, repair hints that discharge their
   casts, whole-run cache-key separation between gradual and plain runs
   in both directions, and the partition entries the two modes share. *)

open Liquid_logic
open Liquid_infer
module Pipeline = Liquid_driver.Pipeline
module Gradual = Liquid_gradual.Gradual
module Eval = Liquid_eval.Eval

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Programs (all items named: gensym stamps drift across processes)    *)
(* ------------------------------------------------------------------ *)

(* A genuine off-by-one: statically unprovable but not refuted, so
   gradual mode defers it to a runtime cast (which then fails). *)
let overrun_src =
  "let a = Array.make 10 0\n\
   let rec fill i =\n\
  \  if i <= 10 then begin\n\
  \    a.(i) <- i;\n\
  \    fill (i + 1)\n\
  \  end\n\
  \  else 0\n\
   let start = fill 0"

(* The same loop with the correct bound: under an empty qualifier set
   the bounds obligation is still unprovable (no invariant candidates),
   but every runtime check passes — the cast holds. *)
let held_src =
  "let a = Array.make 10 0\n\
   let rec fill i =\n\
  \  if i <= 9 then begin\n\
  \    a.(i) <- i;\n\
  \    fill (i + 1)\n\
  \  end\n\
  \  else 0\n\
   let start = fill 0"

(* A constant out-of-bounds read: the environment refutes the goal
   outright, so even gradual mode keeps it a hard error. *)
let refuted_src = "let a = Array.make 5 0\nlet bad = a.(7)"

(* Safe, but inexpressible without a non-negativity qualifier: under an
   empty qualifier set the assertion becomes a residual whose repair
   hint names the missing instance. *)
let sum_src =
  "let rec sum k =\n\
  \  if k < 0 then 0\n\
  \  else begin\n\
  \    let s = sum (k - 1) in\n\
  \    s + k\n\
  \  end\n\
   let total = sum 5\n\
   let ok = assert (0 <= total)"

(* Two independent off-by-one loops in separate solve units, plus a safe
   item: the partition plan has several units. *)
let sharded_src =
  "let a = Array.make 10 0\n\
   let rec fill i =\n\
  \  if i <= 10 then begin\n\
  \    a.(i) <- i;\n\
  \    fill (i + 1)\n\
  \  end\n\
  \  else 0\n\
   let start = fill 0\n\
   let b = Array.make 5 0\n\
   let rec fillb j =\n\
  \  if j <= 5 then begin\n\
  \    b.(j) <- j;\n\
  \    fillb (j + 1)\n\
  \  end\n\
  \  else 0\n\
   let startb = fillb 0\n\
   let h z = z + 1"

(* The residual corpus every path must agree on: file name,
   source, whether the default qualifiers are on (an empty set leaves
   [sum_src]'s assertion unprovable), and the expected residual count. *)
let residual_corpus =
  [
    ("sum.ml", sum_src, false, 1);
    ("overrun.ml", overrun_src, true, 1);
    ("sharded.ml", sharded_src, true, 2);
  ]

let quals_of use_defaults = if use_defaults then Qualifier.defaults else []

let gradual_options ?(quals = Qualifier.defaults) () =
  { Pipeline.default with Pipeline.quals; gradual = true }

let verify ?quals ?(options = gradual_options ?quals ()) ~name src =
  Pipeline.verify_string ~options ~name src

let render_residuals (r : Pipeline.report) =
  List.map
    (fun rc -> Fmt.str "%a" Gradual.pp_residual rc)
    r.Pipeline.residuals

let parse name src = Liquid_lang.Parser.program_of_string ~file:name src

(* ------------------------------------------------------------------ *)
(* Verdict spectrum                                                    *)
(* ------------------------------------------------------------------ *)

let test_verdict_spectrum () =
  (* SAFE: a provable program has no errors and no residuals. *)
  let safe = verify ~name:"safe.ml" "let x = 1\nlet ok = assert (x > 0)" in
  check_bool "safe program is safe" true safe.Pipeline.safe;
  check_int "safe program has no residuals" 0
    (List.length safe.Pipeline.residuals);
  check_bool "verdict is SAFE" true
    (Gradual.verdict_of ~errors:0 ~residuals:0 = Gradual.Safe);
  (* SAFE_MODULO: unprovable-but-unrefuted obligations become casts. *)
  let modulo = verify ~name:"overrun.ml" overrun_src in
  check_bool "no hard errors under gradual" true modulo.Pipeline.safe;
  check_int "one residual cast" 1 (List.length modulo.Pipeline.residuals);
  check_int "stats count the residual" 1
    modulo.Pipeline.stats.Pipeline.n_residuals;
  (* The same program without gradual is a plain failure. *)
  let plain =
    Pipeline.verify_string ~options:Pipeline.default ~name:"overrun.ml"
      overrun_src
  in
  check_bool "non-gradual run fails outright" false plain.Pipeline.safe;
  (* UNSAFE: a refuted obligation stays a hard error even under
     gradual. *)
  let unsafe = verify ~name:"bad.ml" refuted_src in
  check_bool "refuted obligation stays an error" false unsafe.Pipeline.safe;
  check_int "refuted obligation is not a residual" 0
    (List.length unsafe.Pipeline.residuals);
  check_int "exactly one hard error" 1 (List.length unsafe.Pipeline.errors)

let test_residual_shape () =
  let r = verify ~name:"overrun.ml" overrun_src in
  match r.Pipeline.residuals with
  | [ rc ] ->
      check_bool "id is content-addressed" true
        (String.length rc.Gradual.rc_id = 14
        && String.sub rc.Gradual.rc_id 0 2 = "r-");
      check_bool "id reproduces from origin and goal" true
        (rc.Gradual.rc_id
        = Gradual.residual_id rc.Gradual.rc_origin rc.Gradual.rc_goal);
      check_bool "residual keeps the falsifying witness" true
        (List.mem_assoc "i" rc.Gradual.rc_witness);
      check_bool "residual carries its explanation" true
        (rc.Gradual.rc_explanation.Liquid_explain.Explain.ex_goal
        == rc.Gradual.rc_goal)
  | rcs -> Alcotest.failf "expected 1 residual, got %d" (List.length rcs)

(* ------------------------------------------------------------------ *)
(* Runtime casts                                                       *)
(* ------------------------------------------------------------------ *)

let test_cast_holds () =
  let r = verify ~quals:[] ~name:"held.ml" held_src in
  check_bool "unprovable under empty qualifiers" true
    (r.Pipeline.residuals <> []);
  let rr = Gradual.run_casts r.Pipeline.residuals (parse "held.ml" held_src) in
  check_bool "evaluation runs to completion" true rr.Gradual.rr_finished;
  List.iter
    (fun ((rc : Gradual.residual), st) ->
      match st with
      | Gradual.Held n ->
          check_bool
            (Fmt.str "cast %s checked at runtime" rc.Gradual.rc_id)
            true (n > 0)
      | Gradual.Unreached -> ()
      | Gradual.Failed _ ->
          Alcotest.failf "cast %s failed on a safe program" rc.Gradual.rc_id)
    rr.Gradual.rr_casts;
  check_bool "at least one cast was exercised" true
    (List.exists
       (fun (_, st) -> match st with Gradual.Held _ -> true | _ -> false)
       rr.Gradual.rr_casts)

let test_cast_fails_with_detail () =
  let r = verify ~name:"overrun.ml" overrun_src in
  let rr =
    Gradual.run_casts r.Pipeline.residuals (parse "overrun.ml" overrun_src)
  in
  let failed =
    List.filter_map
      (fun (_, st) ->
        match st with
        | Gradual.Failed { checks; detail } -> Some (checks, detail)
        | _ -> None)
      rr.Gradual.rr_casts
  in
  (match failed with
  | [ (checks, detail) ] ->
      check_bool "failure carries a detail message" true (detail <> "");
      check_bool "the cast was checked before failing" true (checks > 0)
  | fs -> Alcotest.failf "expected 1 failed cast, got %d" (List.length fs));
  (* A failed bounds check has no value to continue with: the run
     halts, and the halt is reported. *)
  check_bool "bounds failure halts evaluation" false rr.Gradual.rr_finished;
  check_bool "halt reason reported" true (rr.Gradual.rr_halt <> None)

(* A failed assertion inside an armed span is absorbed: the cast reports
   it and execution continues to the end of the program. *)
let test_armed_assert_absorbed () =
  (* [total] is 15 at runtime, so the assertion fails dynamically; under
     an empty qualifier set nothing is known about it statically, so the
     obligation is unprovable but not refuted — a residual, not an
     error. *)
  let src =
    "let rec sum k =\n\
    \  if k < 0 then 0\n\
    \  else begin\n\
    \    let s = sum (k - 1) in\n\
    \    s + k\n\
    \  end\n\
     let total = sum 5\n\
     let bad = assert (total > 100)\n\
     let after = 42"
  in
  let r = verify ~quals:[] ~name:"absorb.ml" src in
  check_bool "assertion becomes a residual" true (r.Pipeline.residuals <> []);
  let rr = Gradual.run_casts r.Pipeline.residuals (parse "absorb.ml" src) in
  check_bool "evaluation continues past the absorbed failure" true
    rr.Gradual.rr_finished;
  check_bool "the cast reports the dynamic failure" true
    (List.exists
       (fun (_, st) -> match st with Gradual.Failed _ -> true | _ -> false)
       rr.Gradual.rr_casts)

(* The same failing assertion with no cast armed keeps the interpreter's
   ordinary semantics (the eval hook must not change behaviour when it
   declines to recover). *)
let test_unarmed_assert_still_raises () =
  let src = "let x = 0 - 3\nlet bad = assert (x > 0)" in
  let prog = parse "plain.ml" src in
  (match Eval.run_program prog with
  | _ -> Alcotest.fail "expected Assertion_failure"
  | exception Eval.Assertion_failure _ -> ());
  (* With a hook that observes but never recovers, it still raises. *)
  let observed = ref 0 in
  let check _loc _kind ~ok:_ ~detail:_ =
    incr observed;
    false
  in
  (match Eval.run_program ~check prog with
  | _ -> Alcotest.fail "expected Assertion_failure under a non-recovering hook"
  | exception Eval.Assertion_failure _ -> ());
  check_bool "the hook observed the check" true (!observed > 0)

(* ------------------------------------------------------------------ *)
(* Repair hints discharge their casts                                  *)
(* ------------------------------------------------------------------ *)

let test_repair_discharges_cast () =
  let r = verify ~quals:[] ~name:"sum.ml" sum_src in
  check_bool "program is SAFE_MODULO, not UNSAFE" true r.Pipeline.safe;
  let rp =
    match r.Pipeline.residuals with
    | [ rc ] -> (
        match rc.Gradual.rc_explanation.Liquid_explain.Explain.ex_repair with
        | Some rp -> rp
        | None -> Alcotest.fail "expected a repair hint on the residual")
    | rcs -> Alcotest.failf "expected 1 residual, got %d" (List.length rcs)
  in
  let quals =
    Qualifier.parse_string
      (Fmt.str "qualif Fix(v) : %a" Pred.pp rp.Liquid_explain.Explain.rp_pred)
  in
  let fixed = verify ~quals ~name:"sum.ml" sum_src in
  check_bool "hinted qualifier keeps the program safe" true
    fixed.Pipeline.safe;
  check_int "hinted qualifier discharges the cast" 0
    (List.length fixed.Pipeline.residuals)

(* ------------------------------------------------------------------ *)
(* Determinism: cache temperatures, daemon                             *)
(* ------------------------------------------------------------------ *)

(* Zero hard errors and the expected residual count, with a plain run
   of the same program that still fails: otherwise the residual checks
   would pass vacuously on a program the fixpoint learned to prove. *)
let check_residual_program (name, src, use_defaults, expected)
    (r : Pipeline.report) =
  check_int (name ^ ": no hard errors") 0 (List.length r.Pipeline.errors);
  check_int (name ^ ": residual casts") expected
    (List.length r.Pipeline.residuals);
  let plain =
    Pipeline.verify_string
      ~options:{ Pipeline.default with Pipeline.quals = quals_of use_defaults }
      ~name src
  in
  check_bool (name ^ ": plain run fails") false plain.Pipeline.safe

let test_paths_byte_identical () =
  let direct =
    List.map
      (fun ((name, src, use_defaults, _) as program) ->
        let r = verify ~quals:(quals_of use_defaults) ~name src in
        check_residual_program program r;
        render_residuals r)
      residual_corpus
  in
  (* Persistent cache: cold (stored) and warm (disk-served, rehashed)
     reports render identically. *)
  Test_server.with_dir (fun base ->
      List.iter2
        (fun (name, src, use_defaults, _) expected ->
          let options =
            {
              (gradual_options ~quals:(quals_of use_defaults) ()) with
              Pipeline.cache_dir = Some base;
            }
          in
          let cold = Pipeline.verify_string ~options ~name src in
          check_bool (name ^ ": cold cached run matches direct") true
            (render_residuals cold = expected);
          let warm = Pipeline.verify_string ~options ~name src in
          check_int (name ^ ": second run served from the persistent cache") 1
            warm.Pipeline.stats.Pipeline.n_pcache_hits;
          check_bool (name ^ ": warm cached run matches direct") true
            (render_residuals warm = expected))
        residual_corpus direct);
  (* Daemon: residuals cross the socket and a rehash. *)
  Test_server.with_server (fun sock ->
      Test_server.with_client sock (fun c ->
          let replies =
            Liquid_server.Client.verify c
              (List.map
                 (fun (name, src, use_defaults, _) ->
                   Liquid_server.Protocol.request ~use_defaults ~gradual:true
                     ~name src)
                 residual_corpus)
          in
          List.iter2
            (fun ((name, _, _, _), expected) reply ->
              let served = Test_server.expect_verified reply in
              check_bool (name ^ ": daemon-served residuals match direct") true
                (render_residuals served = expected))
            (List.combine residual_corpus direct)
            replies))

(* ------------------------------------------------------------------ *)
(* Cache-key separation, both directions                               *)
(* ------------------------------------------------------------------ *)

(* A report's JSON without its stats: verdict, errors, residuals,
   explanations and rendered types. *)
let report_body (r : Pipeline.report) =
  let open Liquid_analysis in
  Json.to_string
    (match Pipeline.json_of_report r with
    | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "stats") kvs)
    | j -> j)

let test_cache_key_separation () =
  check_bool "options fingerprints differ" true
    (Pipeline.options_fingerprint Pipeline.default
    <> Pipeline.options_fingerprint { Pipeline.default with gradual = true });
  Test_server.with_dir (fun base ->
      let plain_opts = { Pipeline.default with cache_dir = Some base } in
      let grad_opts = { plain_opts with Pipeline.gradual = true } in
      (* Plain first: its report (an UNSAFE verdict) lands in the
         cache. *)
      let plain =
        Pipeline.verify_string ~options:plain_opts ~name:"overrun.ml"
          overrun_src
      in
      check_bool "plain run fails" false plain.Pipeline.safe;
      (* A gradual run of the same source must not be served the plain
         entry: it classifies the failure itself and reports residuals. *)
      let grad =
        Pipeline.verify_string ~options:grad_opts ~name:"overrun.ml"
          overrun_src
      in
      check_int "gradual run is not served the plain entry" 0
        grad.Pipeline.stats.Pipeline.n_pcache_hits;
      check_bool "gradual run reports residuals" true
        (grad.Pipeline.residuals <> []);
      (* Each mode warm-hits its own entry... *)
      let grad2 =
        Pipeline.verify_string ~options:grad_opts ~name:"overrun.ml"
          overrun_src
      in
      check_int "gradual entry serves gradual runs" 1
        grad2.Pipeline.stats.Pipeline.n_pcache_hits;
      check_bool "warm gradual report keeps its residuals" true
        (grad2.Pipeline.residuals <> []);
      (* ...and the gradual entry never leaks back into plain mode. *)
      let plain2 =
        Pipeline.verify_string ~options:plain_opts ~name:"overrun.ml"
          overrun_src
      in
      check_int "plain entry serves plain runs" 1
        plain2.Pipeline.stats.Pipeline.n_pcache_hits;
      check_bool "warm plain report is still a failure" false
        plain2.Pipeline.safe;
      check_int "warm plain report has no residuals" 0
        (List.length plain2.Pipeline.residuals);
      (* Partition entries are shared by the two modes: the solve never
         sees the mode, and classification reads the final solution
         after it.  With the whole-run entries gone, plain, gradual and
         plain again re-solve no unit an earlier run solved. *)
      let reuses_every_unit what opts =
        List.iter Sys.remove (Test_server.report_entries base);
        let r =
          Pipeline.verify_string ~options:opts ~name:"overrun.ml" overrun_src
        in
        let s = r.Pipeline.stats in
        check_int (what ^ ": whole-run entry is gone") 0 s.Pipeline.n_pcache_hits;
        check_bool (what ^ ": has units") true (s.Pipeline.n_partitions > 0);
        check_int (what ^ ": reuses every unit") s.Pipeline.n_partitions
          s.Pipeline.n_punit_hits;
        check_int (what ^ ": re-solves nothing") 0 s.Pipeline.n_punit_misses
      in
      reuses_every_unit "plain" plain_opts;
      reuses_every_unit "gradual" grad_opts;
      reuses_every_unit "plain after gradual" plain_opts);
  (* In a fresh store, a gradual run after a plain run of the same
     program, with the whole-run entries gone, solves no unit, and each
     mode's report equals an uncached run's in that mode. *)
  Test_server.with_dir (fun base ->
      let plain_opts = { Pipeline.default with cache_dir = Some base } in
      let grad_opts = { plain_opts with Pipeline.gradual = true } in
      let run options =
        Pipeline.verify_string ~options ~name:"overrun.ml" overrun_src
      in
      let uncached options = run { options with Pipeline.cache_dir = None } in
      let same_as_uncached what options r =
        Alcotest.(check string)
          (what ^ ": report equals an uncached run's")
          (report_body (uncached options))
          (report_body r)
      in
      same_as_uncached "plain" plain_opts (run plain_opts);
      List.iter Sys.remove (Test_server.report_entries base);
      let grad = run grad_opts in
      let s = grad.Pipeline.stats in
      check_int "gradual after plain: whole-run entry is gone" 0
        s.Pipeline.n_pcache_hits;
      check_int "gradual after plain: reuses every unit"
        s.Pipeline.n_partitions s.Pipeline.n_punit_hits;
      check_int "gradual after plain: solves no unit" 0
        s.Pipeline.n_punit_misses;
      same_as_uncached "gradual after plain" grad_opts grad)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let field name = function
  | Liquid_analysis.Json.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> Alcotest.failf "missing JSON field %s" name)
  | _ -> Alcotest.fail "expected a JSON object"

let test_json_verdict_and_residuals () =
  let r = verify ~name:"overrun.ml" overrun_src in
  let j = Pipeline.json_of_report ~file:"overrun.ml" r in
  let open Liquid_analysis in
  (match field "verdict" j with
  | Json.String v -> check_bool "verdict names the spectrum point" true
        (v = "SAFE_MODULO 1")
  | _ -> Alcotest.fail "expected a verdict string");
  (match field "residuals" j with
  | Json.List [ rc ] ->
      List.iter
        (fun k ->
          match field k rc with
          | _ -> ()
          | exception _ -> Alcotest.failf "residual JSON missing %s" k)
        [ "id"; "loc"; "reason"; "goal"; "count"; "witness"; "explanation" ]
  | _ -> Alcotest.fail "expected exactly one residual in JSON");
  match field "stats" j with
  | Json.Obj kvs ->
      check_bool "stats count residuals" true
        (List.assoc_opt "residuals" kvs = Some (Json.Int 1))
  | _ -> Alcotest.fail "expected a stats object"

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    tc "verdict spectrum SAFE / SAFE_MODULO / UNSAFE" test_verdict_spectrum;
    tc "residuals are content-addressed with witness" test_residual_shape;
    tc "runtime casts hold on a safe program" test_cast_holds;
    tc "failed cast reports detail and halts on bounds"
      test_cast_fails_with_detail;
    tc "armed assertion failure is absorbed" test_armed_assert_absorbed;
    tc "unarmed assertion failure still raises" test_unarmed_assert_still_raises;
    tc "repair hint discharges its cast" test_repair_discharges_cast;
    slow "direct/cache/daemon residuals byte-identical"
      test_paths_byte_identical;
    tc "gradual and plain runs never share a report entry"
      test_cache_key_separation;
    tc "JSON verdict, residual schema, stats counters"
      test_json_verdict_and_residuals;
  ]
