(* Tests for partitioned constraint solving: solve-unit plans,
   re-interning of marshalled predicates, and the fault isolation of the
   scheduler's forked jobs. *)

open Liquid_common
open Liquid_logic
open Liquid_infer
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
(* Scheduler jobs: crashes and timeouts                                *)
(* ------------------------------------------------------------------ *)

(* Every forked worker has been reaped: this process has no child. *)
let check_no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "a worker outlived the run (pid %d)" pid

(* Step [jobs] until each has its outcome, then return the outcomes. *)
let settle jobs =
  let rec go = function
    | [] -> ()
    | pending ->
        ignore
          (Unix.select (List.map Scheduler.job_fd pending) [] [] 0.05);
        go (List.filter (fun j -> Scheduler.step j = None) pending)
  in
  go jobs;
  List.map
    (fun j ->
      match Scheduler.step j with Some o -> o | None -> assert false)
    jobs

let check_failed what ~timed_out = function
  | Scheduler.Failed f ->
      check_bool (what ^ ": timed out") timed_out f.timed_out;
      check_int (what ^ ": retried once") 2 f.attempts
  | Scheduler.Done _ -> Alcotest.failf "%s job should fail after a retry" what

let check_healthy = function
  | Scheduler.Done r -> check_int "healthy job completes" 7 r
  | Scheduler.Failed { detail; _ } ->
      Alcotest.failf "healthy job failed: %s" detail

let test_scheduler_crash_isolation () =
  let crashed =
    Scheduler.submit ~fault:(fun () -> Some Scheduler.Crash) (fun () -> 1)
  in
  let healthy = Scheduler.submit (fun () -> 7) in
  (match settle [ crashed; healthy ] with
  | [ c; h ] ->
      check_failed "crashed" ~timed_out:false c;
      check_healthy h
  | _ -> assert false);
  check_no_children ()

let test_scheduler_timeout () =
  let hung =
    Scheduler.submit ~timeout:0.2
      ~fault:(fun () -> Some Scheduler.Hang)
      (fun () -> 1)
  in
  let healthy = Scheduler.submit ~timeout:30.0 (fun () -> 7) in
  (match settle [ hung; healthy ] with
  | [ t; h ] ->
      check_failed "hung" ~timed_out:true t;
      check_healthy h
  | _ -> assert false);
  check_no_children ()

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "partition plan structure" test_plan_structure;
    tc "rehash round-trips marshalled predicates" test_rehash_round_trip;
    tc "scheduler isolates crashes" test_scheduler_crash_isolation;
    tc "scheduler kills hung workers" test_scheduler_timeout;
  ]
