(* Tests for partitioned constraint solving: solve-unit plans, the
   scheduler's fault isolation, re-interning of marshalled predicates,
   and determinism of verdicts across worker counts. *)

open Liquid_common
open Liquid_logic
open Liquid_infer
open Liquid_suite
open Liquid_engine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let constraints_of src =
  let prog =
    Liquid_anf.Anf.normalize_program (Liquid_lang.Parser.program_of_string src)
  in
  let info = Liquid_typing.Infer.infer_program prog in
  let out = Congen.generate info prog in
  (out.Congen.wfs, out.Congen.subs)

(* Several independent top-level items, so the κ-dependency graph has
   more than one component. *)
let multi_src =
  "let f x = if x > 0 then x else 0 - x\n\
   let g y = y + 1\n\
   let a = Array.make 10 0\n\
   let _ = a.(5)\n\
   let _ = assert (f 3 >= 0)"

(* ------------------------------------------------------------------ *)
(* Plan structure                                                      *)
(* ------------------------------------------------------------------ *)

let test_plan_structure () =
  let wfs, subs = constraints_of multi_src in
  let plan = Constr.partition_plan wfs subs in
  let parts = Array.to_list plan.Constr.parts in
  check_bool "several partitions for independent items" true
    (List.length parts > 1);
  (* Ids are positional. *)
  List.iteri
    (fun i (p : Constr.partition) -> check_int "positional id" i p.Constr.part_id)
    parts;
  (* Topological numbering: every dependency has a smaller id. *)
  List.iter
    (fun (p : Constr.partition) ->
      check_bool "deps precede the partition" true
        (List.for_all (fun d -> d < p.Constr.part_id) p.Constr.part_deps))
    parts;
  (* Every constraint lands in exactly one partition. *)
  let assigned =
    List.concat_map
      (fun (p : Constr.partition) ->
        List.map (fun (c : Constr.sub) -> c.Constr.sub_id) p.Constr.part_subs)
      parts
  in
  check_int "every constraint assigned once" (List.length subs)
    (List.length (List.sort_uniq Int.compare assigned));
  check_int "no constraint dropped" (List.length subs) (List.length assigned);
  (* κ ownership is a partition of the κ universe. *)
  let owned = List.concat_map (fun p -> p.Constr.part_kvars) parts in
  check_int "κs owned exactly once" plan.Constr.plan_kvars
    (List.length (List.sort_uniq Int.compare owned));
  check_int "κ universe covered" plan.Constr.plan_kvars (List.length owned);
  (* A κ-weakening constraint lives in the partition owning its κ. *)
  List.iter
    (fun (p : Constr.partition) ->
      List.iter
        (fun (c : Constr.sub) ->
          match Constr.writes c with
          | Some k ->
              check_bool "writer placed with its κ" true
                (List.mem k p.Constr.part_kvars)
          | None -> ())
        p.Constr.part_subs)
    parts;
  check_bool "critical path is positive and bounded" true
    (plan.Constr.critical_path >= 1
    && plan.Constr.critical_path <= List.length parts)

(* ------------------------------------------------------------------ *)
(* Re-interning marshalled predicates                                  *)
(* ------------------------------------------------------------------ *)

let test_rehash_round_trip () =
  let x = Term.var (Ident.of_string "x") Sort.Int in
  let p =
    Pred.conj
      [
        Pred.le (Term.int 0) x;
        Pred.imp (Pred.bvar (Ident.of_string "b")) (Pred.lt x (Term.int 8));
      ]
  in
  let foreign : Pred.t = Marshal.from_string (Marshal.to_string p []) 0 in
  check_bool "unmarshalled predicate is physically foreign" false
    (p == foreign);
  let rehashed = Pred.rehasher () foreign in
  check_bool "rehashing restores the canonical node" true (p == rehashed);
  check_bool "printed forms agree" true
    (Pred.to_string p = Pred.to_string foreign)

(* ------------------------------------------------------------------ *)
(* Scheduler: ordering, timeouts, crashes                              *)
(* ------------------------------------------------------------------ *)

let with_fault hook f =
  Scheduler.fault_hook := hook;
  Fun.protect ~finally:(fun () -> Scheduler.fault_hook := fun _ -> None) f

let test_scheduler_order () =
  (* Diamond: 0 → {1, 2} → 3. *)
  let deps = function 1 | 2 -> [ 0 ] | 3 -> [ 1; 2 ] | _ -> [] in
  let order = ref [] in
  let results = Array.make 4 (-1) in
  Scheduler.run ~jobs:2 ~n_units:4 ~deps
    ~work:(fun u -> u * 10)
    ~merge:(fun u outcome _elapsed ->
      order := u :: !order;
      match outcome with
      | Scheduler.Done r -> results.(u) <- r
      | Scheduler.Failed _ -> ())
    ();
  check_bool "all units produced results" true
    (Array.to_list results = [ 0; 10; 20; 30 ]);
  let merge_order = List.rev !order in
  check_bool "source merged first" true (List.hd merge_order = 0);
  check_bool "sink merged last" true
    (List.nth merge_order 3 = 3)

let test_scheduler_crash_isolation () =
  with_fault
    (fun u -> if u = 1 then Some Scheduler.Crash else None)
    (fun () ->
      let outcomes = Array.make 3 None in
      Scheduler.run ~jobs:2 ~n_units:3
        ~deps:(fun _ -> [])
        ~work:(fun u -> u)
        ~merge:(fun u o _ -> outcomes.(u) <- Some o)
        ();
      (match outcomes.(1) with
      | Some (Scheduler.Failed { timed_out; attempts; _ }) ->
          check_bool "crash is not a timeout" false timed_out;
          check_int "crashed unit retried once" 2 attempts
      | _ -> Alcotest.fail "crashed unit should fail after retry");
      List.iter
        (fun u ->
          match outcomes.(u) with
          | Some (Scheduler.Done r) -> check_int "healthy unit unaffected" u r
          | _ -> Alcotest.fail "healthy unit should complete")
        [ 0; 2 ])

let test_scheduler_timeout () =
  with_fault
    (fun u -> if u = 0 then Some Scheduler.Hang else None)
    (fun () ->
      let outcome = ref None in
      Scheduler.run ~timeout:0.2 ~jobs:2 ~n_units:2
        ~deps:(fun _ -> [])
        ~work:(fun u -> u)
        ~merge:(fun u o _ -> if u = 0 then outcome := Some o)
        ();
      match !outcome with
      | Some (Scheduler.Failed { timed_out; attempts; _ }) ->
          check_bool "hang reported as timeout" true timed_out;
          check_int "hung unit retried once" 2 attempts
      | _ -> Alcotest.fail "hung unit should time out")

(* Every forked worker has been reaped: this process has no child. *)
let check_no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "a worker outlived the run (pid %d)" pid

(* An exception out of [merge] (the pipeline's policy for a unit that
   failed twice) cancels the workers still running: unit 1 here would
   otherwise hang forever. *)
let test_scheduler_cancels_on_raise () =
  with_fault
    (fun u -> if u = 1 then Some Scheduler.Hang else None)
    (fun () ->
      match
        Scheduler.run ~jobs:2 ~n_units:2
          ~deps:(fun _ -> [])
          ~work:(fun u -> u)
          ~merge:(fun u _ _ -> if u = 0 then failwith "stop")
          ()
      with
      | () -> Alcotest.fail "merge's exception must propagate"
      | exception Failure _ -> ());
  check_no_children ()

(* ------------------------------------------------------------------ *)
(* Pipeline fault policy: a partition that fails twice fails the run   *)
(* ------------------------------------------------------------------ *)

module Pipeline = Liquid_driver.Pipeline

let sharded_options =
  { Pipeline.default with Pipeline.jobs = 2; partition_timeout = Some 0.2 }

let test_pipeline_fault fault () =
  (* The program must actually shard for the fault to be exercised. *)
  let base = Pipeline.verify_string multi_src in
  check_bool "program shards" true
    (base.Pipeline.stats.Pipeline.n_partitions > 1);
  with_fault
    (fun u -> if u = 0 then Some fault else None)
    (fun () ->
      match Pipeline.verify_string ~options:sharded_options multi_src with
      | _ -> Alcotest.fail "a twice-failed partition must fail the run"
      | exception Failure msg ->
          check_bool
            (Fmt.str "failure names partition 0: %s" msg)
            true
            (String.starts_with ~prefix:"solve partition 0 " msg));
  check_no_children ()

(* The report minus its [stats] (timings and per-run counters), as
   [dsolve --format json] prints it. *)
let report_json (r : Pipeline.report) =
  match Pipeline.json_of_report r with
  | Liquid_analysis.Json.Obj fields ->
      Liquid_analysis.Json.to_string
        (Liquid_analysis.Json.Obj
           (List.filter (fun (k, _) -> k <> "stats") fields))
  | j -> Liquid_analysis.Json.to_string j

(* Without faults, a sharded run reports exactly what a sequential run
   does: verdict, errors, residuals, explanations, types and the full
   lint list.  Dead qualifiers (L005) are the sharpest probe: at every
   job count they come from the merged per-unit candidates, so a forked
   unit that kept other candidates than the sequential solve shows
   there. *)
let test_sharded_clean () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun gradual ->
          let run jobs =
            Pipeline.verify_string
              ~options:
                {
                  Pipeline.default with
                  Pipeline.jobs;
                  lint = true;
                  explain = true;
                  gradual;
                }
              ~name src
          in
          let seq = run 1 in
          check_bool (name ^ " shards") true
            (seq.Pipeline.stats.Pipeline.n_partitions > 1);
          List.iter
            (fun jobs ->
              Alcotest.(check string)
                (Fmt.str "%s (gradual=%b) at jobs=%d" name gradual jobs)
                (report_json seq)
                (report_json (run jobs)))
            [ 2; 4 ])
        [ false; true ])
    [ ("multi.ml", multi_src); ("sharded.ml", Test_gradual.sharded_src) ]

(* ------------------------------------------------------------------ *)
(* Determinism: the whole suite agrees across worker counts            *)
(* ------------------------------------------------------------------ *)

let jobs_fingerprint jobs =
  List.map
    (fun (b : Programs.benchmark) ->
      let row = Runner.verify ~jobs b in
      let rep = row.Runner.report in
      ( b.Programs.name,
        rep.Liquid_driver.Pipeline.safe,
        rep.Liquid_driver.Pipeline.stats.Liquid_driver.Pipeline.n_partitions,
        List.map
          (fun (e : Liquid_driver.Pipeline.error) ->
            Fmt.str "%a: %s: %s" Liquid_common.Loc.pp
              e.Liquid_driver.Pipeline.err_loc
              e.Liquid_driver.Pipeline.err_reason
              e.Liquid_driver.Pipeline.err_goal)
          rep.Liquid_driver.Pipeline.errors,
        List.map
          (fun (x, t) ->
            Fmt.str "%a : %a" Liquid_common.Ident.pp x Liquid_infer.Rtype.pp
              (Liquid_infer.Report.display t))
          rep.Liquid_driver.Pipeline.item_types ))
    Programs.all

let test_jobs_determinism () =
  let reference = jobs_fingerprint 1 in
  (* Guard against the sharded path silently never engaging. *)
  check_bool "some benchmark has several partitions" true
    (List.exists (fun (_, _, n, _, _) -> n > 1) reference);
  List.iter
    (fun jobs ->
      List.iter2
        (fun (name, safe_r, parts_r, errs_r, types_r)
             (_, safe_j, parts_j, errs_j, types_j) ->
          let tag = Fmt.str "%s @ jobs=%d" name jobs in
          check_bool (tag ^ ": same verdict") true (safe_r = safe_j);
          check_bool (tag ^ ": same partition plan") true (parts_r = parts_j);
          check_bool (tag ^ ": same errors") true (errs_r = errs_j);
          check_bool (tag ^ ": same inferred types") true (types_r = types_j))
        reference (jobs_fingerprint jobs))
    [ 2; 4 ]

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    tc "partition plan structure" test_plan_structure;
    tc "rehash round-trips marshalled predicates" test_rehash_round_trip;
    tc "scheduler respects dependencies" test_scheduler_order;
    tc "scheduler isolates crashes" test_scheduler_crash_isolation;
    tc "scheduler kills hung workers" test_scheduler_timeout;
    tc "scheduler cancels workers when merge raises"
      test_scheduler_cancels_on_raise;
    tc "hung partition fails the run" (test_pipeline_fault Scheduler.Hang);
    tc "crashed partition fails the run" (test_pipeline_fault Scheduler.Crash);
    tc "clean sharded run matches sequential" test_sharded_clean;
    slow "suite verdicts agree at jobs 1/2/4" test_jobs_determinism;
  ]
