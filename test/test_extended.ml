(* Integration tests for the extended benchmark suite (beyond the paper's
   table): verification with constant mining, execution under the
   reference interpreter, and mutation rejection. *)

open Liquid_suite

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let verify_ext b = Runner.verify ~mine:true b

let test_all_verify () =
  List.iter
    (fun (b : Programs.benchmark) ->
      let row = verify_ext b in
      check_bool (b.Programs.name ^ " verifies")
        true row.Runner.report.Liquid_driver.Pipeline.safe)
    Extended.all

let exec_int name =
  match Runner.execute (Extended.find name) with
  | Liquid_eval.Eval.Vint n -> n
  | v ->
      Alcotest.fail
        (Fmt.str "%s: non-int main %a" name Liquid_eval.Eval.pp_value v)

let test_execution () =
  check_int "queue round-trips the first element" 42 (exec_int "queue");
  check_int "pascal C(6,3)" 20 (exec_int "pascal");
  check_int "sieve pi(30)" 10 (exec_int "sieve");
  check_int "selsort minimum first" 1 (exec_int "selsort");
  check_int "strmatch finds at 0" 0 (exec_int "strmatch");
  check_int "transpose moves (0,4) to (4,0)" 9 (exec_int "transpose");
  check_int "fib 15" 610 (exec_int "fibmemo")

let test_mutants () =
  List.iter
    (fun (m : Programs.mutant) ->
      let row = verify_ext (Programs.mutate m) in
      check_bool
        (Fmt.str "%s mutant rejected (%s)" m.bench.Programs.name m.bug)
        false row.Runner.report.Liquid_driver.Pipeline.safe)
    Extended.mutants

(* sieve's stride-0 mutant diverges dynamically; check the verifier
   catches what the interpreter (with fuel) also objects to. *)
let test_mutant_agrees_with_runtime () =
  let b =
    Programs.mutate
      (List.find
         (fun (m : Programs.mutant) -> m.bench.Programs.name = "queue")
         Extended.mutants)
  in
  (* statically rejected; dynamically fine on this particular input --
     static analysis is conservative, never the other way around *)
  let row = verify_ext b in
  check_bool "static: rejected" false
    row.Runner.report.Liquid_driver.Pipeline.safe;
  let prog = Liquid_lang.Parser.program_of_string ~file:"q" b.Programs.source in
  match Liquid_eval.Eval.run_program prog with
  | _ -> ()
  | exception Liquid_eval.Eval.Bounds_violation _ ->
      Alcotest.fail "unexpected dynamic violation"

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "all extended benchmarks verify" test_all_verify;
    tc "extended benchmarks execute correctly" test_execution;
    tc "extended mutants rejected" test_mutants;
    tc "conservatism vs runtime" test_mutant_agrees_with_runtime;
  ]
