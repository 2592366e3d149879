(* Tests for model-based elimination and for the candidate set it starts
   from, in two groups.  [elim]: equality of the pooled solve with the
   naive reference (see [Elim_reference]) on every T1 and E1 program,
   and pooled reports through the persistent cache and through the
   daemon.  [prune]: what instantiation prunes from the candidate set
   (twin-free instantiation, the orientation collapse) and the SMT
   counter invariant of a verification run. *)

open Liquid_smt
open Liquid_logic
open Liquid_infer
open Liquid_suite
open Elim_reference
module Pipeline = Liquid_driver.Pipeline
module KMap = Constr.KMap

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A safe program with a self-recursive loop invariant: the invariant
   instances support themselves through the recursive constraint. *)
let loop_src =
  "let a = Array.make 8 0\n\
   let rec go i = if i < Array.length a then begin a.(i) <- i; go (i + 1) \
   end else ()\n\
   let _ = go 0"

(* An unsafe program, so failures cross the pooled path. *)
let overrun_src = "let a = Array.make 8 0\nlet _ = a.(8)"

let verify ?(explain = false) ?quals ?cache_dir src =
  let options = { Pipeline.default with Pipeline.explain; cache_dir } in
  let options =
    match quals with
    | None -> options
    | Some q -> { options with Pipeline.quals = q }
  in
  Pipeline.verify_string ~options ~name:"test.ml" src

(* Everything report-shaped the user can observe, rendered: verdict,
   errors, inferred types, diagnostics (via [pp_report]), and the
   explanations (via their JSON).  Stats are deliberately excluded —
   counters and times legitimately differ between runs. *)
let fingerprint (r : Pipeline.report) =
  ( r.Pipeline.safe,
    Fmt.str "%a" Pipeline.pp_report r,
    List.map
      (fun e ->
        Liquid_analysis.Json.to_string (Pipeline.json_of_explanation e))
      r.Pipeline.explanations )

(* ------------------------------------------------------------------ *)
(* Corpus constraint systems                                           *)
(* ------------------------------------------------------------------ *)

(* T1 and E1, with the qualifiers and mining their suites verify them
   with.  Each is a thunk: build a system only right before solving it
   (see [Elim_reference.system]). *)
let suite_systems =
  let bench ~mine (b : Programs.benchmark) () =
    system ~mine ~quals:(Runner.qualifiers_of b) b.Programs.name
      b.Programs.source
  in
  List.map (bench ~mine:false) Programs.all
  @ List.map (bench ~mine:true) Extended.all

(* Every T1, E1 and datatype program, plus a failing input. *)
let all_systems =
  suite_systems
  @ List.map
      (fun (name, src) () -> system name src)
      (Test_adt.elim_programs @ [ ("overrun", overrun_src) ])

let each_system builds f = List.iter (fun build -> f (build ())) builds

(* ------------------------------------------------------------------ *)
(* The pool engages and the report does not move                       *)
(* ------------------------------------------------------------------ *)

(* On a safe and an unsafe program the pooled solve reaches the naive
   solution and failures; the pipeline still explains the failure. *)
let test_pool_active () =
  let loop = system "loop.ml" loop_src in
  let stats = check_reference loop in
  check_int "initial candidates counted"
    (KMap.fold (fun _ insts n -> n + List.length insts) (initial loop) 0)
    stats.Fixpoint.initial_candidates;
  ignore (check_reference (system "overrun.ml" overrun_src));
  let r = verify loop_src in
  check_bool "program is safe" true r.Pipeline.safe;
  let e = verify ~explain:true overrun_src in
  check_bool "unsafe program stays unsafe" false e.Pipeline.safe;
  check_bool "explanations produced" true (e.Pipeline.explanations <> [])

(* ------------------------------------------------------------------ *)
(* Twin-free instantiation                                             *)
(* ------------------------------------------------------------------ *)

(* No κ starts with two instances of equal normal form, even under a
   qualifier set that mirrors a default: instantiation collapses
   orientation twins, so the weakening loop never checks both. *)
let test_twin_free () =
  let mirror = Qualifier.parse_string "qualif LeFlip(v) : _ >= v" in
  each_system all_systems (fun s ->
      List.iter
        (fun quals ->
          let init = Fixpoint.init_assignment ~consts:s.consts quals s.wfs in
          check_bool
            (s.name ^ ": no two instances of one κ normalize alike")
            true
            (KMap.for_all
               (fun _ insts ->
                 let keys = List.map (fun (p, _) -> Prop.normalize p) insts in
                 List.length (List.sort_uniq Pred.compare keys)
                 = List.length keys)
               init))
        [ s.quals; s.quals @ mirror ])

(* ------------------------------------------------------------------ *)
(* The suites: pooled = naive                                         *)
(* ------------------------------------------------------------------ *)

(* Every T1 and E1 program's pooled solve equals the naive
   reference. *)
let test_suite_identity () =
  each_system suite_systems (fun s -> ignore (check_reference s))

(* ------------------------------------------------------------------ *)
(* SMT counters add up                                                 *)
(* ------------------------------------------------------------------ *)

(* Every SAT check and every cache hit answers a query of its own
   ([queries = sat_checks + cache_hits + trivial]), so neither side may
   outgrow the query count over a verification run. *)
let test_counter_invariant () =
  List.iter
    (fun (b : Programs.benchmark) ->
      let s = Solver.stats in
      let q0 = s.Solver.queries
      and c0 = s.Solver.sat_checks
      and h0 = s.Solver.cache_hits in
      ignore (Runner.verify b);
      let queries = s.Solver.queries - q0
      and sat_checks = s.Solver.sat_checks - c0
      and cache_hits = s.Solver.cache_hits - h0 in
      check_bool
        (Fmt.str "%s: %d SAT checks + %d cache hits <= %d queries"
           b.Programs.name sat_checks cache_hits queries)
        true
        (sat_checks + cache_hits <= queries))
    Programs.all

(* ------------------------------------------------------------------ *)
(* Instantiation-time orientation collapse                             *)
(* ------------------------------------------------------------------ *)

let test_alpha_collapse () =
  (* [_ >= v] instantiates to [x >= v], the orientation mirror of the
     default [v <= _] instance [v <= x]: it must collapse at
     instantiation, leaving the report exactly as with defaults only. *)
  let mirrored =
    Qualifier.defaults @ Qualifier.parse_string "qualif LeFlip(v) : _ >= v"
  in
  let withm = verify ~quals:mirrored loop_src in
  let base = verify loop_src in
  check_bool "mirrored instances collapsed" true
    (withm.Pipeline.stats.Pipeline.n_alpha_collapsed > 0);
  check_int "defaults alone collapse nothing" 0
    base.Pipeline.stats.Pipeline.n_alpha_collapsed;
  check_bool "report unchanged by the mirrored qualifier" true
    (fingerprint withm = fingerprint base)

(* ------------------------------------------------------------------ *)
(* Persistent cache                                                    *)
(* ------------------------------------------------------------------ *)

let test_cache_replay () =
  Test_server.with_dir (fun base ->
      let expected = fingerprint (verify loop_src) in
      let cold = verify ~cache_dir:base loop_src in
      check_bool "cold run checks implications" true
        (cold.Pipeline.stats.Pipeline.n_implication_checks > 0);
      check_int "cold run misses" 0 cold.Pipeline.stats.Pipeline.n_pcache_hits;
      check_bool "cold cached report matches direct" true
        (fingerprint cold = expected);
      let warm = verify ~cache_dir:base loop_src in
      check_int "warm run served from disk" 1
        warm.Pipeline.stats.Pipeline.n_pcache_hits;
      check_bool "replayed report matches direct" true
        (fingerprint warm = expected);
      check_int "replayed stats keep the cold run's checks"
        cold.Pipeline.stats.Pipeline.n_implication_checks
        warm.Pipeline.stats.Pipeline.n_implication_checks)

(* ------------------------------------------------------------------ *)
(* Daemon round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let test_daemon_round_trip () =
  let direct = verify loop_src in
  let expected = fingerprint direct in
  Test_server.with_server (fun sock ->
      Test_server.with_client sock (fun c ->
          let replies =
            Liquid_server.Client.verify c
              [ Liquid_server.Protocol.request ~name:"loop.ml" loop_src ]
          in
          let served = Test_server.expect_verified (List.hd replies) in
          check_bool "daemon-served report matches direct" true
            (fingerprint served = expected);
          check_int "counters survive the socket"
            direct.Pipeline.stats.Pipeline.n_implication_checks
            served.Pipeline.stats.Pipeline.n_implication_checks))

let tc name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let tests =
  [
    tc "pool engages, report unchanged" test_pool_active;
    slow "suite equals the naive reference" test_suite_identity;
    tc "persistent cache replays report" test_cache_replay;
    tc "daemon round-trips a report" test_daemon_round_trip;
  ]

let prune_tests =
  [
    tc "no orientation twins at instantiation" test_twin_free;
    tc "orientation mirrors collapse at instantiation" test_alpha_collapse;
    slow "sat checks + cache hits <= queries" test_counter_invariant;
  ]
