(* Integration tests over the paper's benchmark suite: every benchmark
   must verify with its qualifier set, execute correctly under the
   reference interpreter, and reject planted bugs (mutation testing). *)

open Liquid_suite

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Verification: the paper's headline table                            *)
(* ------------------------------------------------------------------ *)

let test_benchmark name =
  let b = Programs.find name in
  let row = Runner.verify b in
  check_bool (name ^ " verifies safe") true
    row.Runner.report.Liquid_driver.Pipeline.safe

(* ------------------------------------------------------------------ *)
(* Execution: verified programs run without bounds/assert failures and *)
(* compute the right answers (soundness, in executable form)           *)
(* ------------------------------------------------------------------ *)

let exec_int name =
  match Runner.execute (Programs.find name) with
  | Liquid_eval.Eval.Vint n -> n
  | v -> Alcotest.fail (Fmt.str "%s: non-int main %a" name Liquid_eval.Eval.pp_value v)

let test_execution () =
  check_int "dotprod = 16 * 12" 192 (exec_int "dotprod");
  check_int "bcopy copies" 7 (exec_int "bcopy");
  check_int "queens 6 has 4 solutions" 4 (exec_int "queens");
  check_int "isort sorts (min first)" 1 (exec_int "isort");
  check_int "tower moves all disks" 1 (exec_int "tower");
  check_int "matmult diagonal product" 2 (exec_int "matmult");
  check_int "heapsort sorts ascending" 77 (exec_int "heapsort");
  check_int "fft stage sums" 16 (exec_int "fft");
  (match Runner.execute (Programs.find "bsearch") with
  | Liquid_eval.Eval.Vunit -> ()
  | _ -> Alcotest.fail "bsearch main");
  ignore (exec_int "simplex");
  ignore (exec_int "gauss")

(* ------------------------------------------------------------------ *)
(* Mutation testing: planting an off-by-one or dropping a guard must   *)
(* flip the verdict to unsafe.                                         *)
(* ------------------------------------------------------------------ *)

let test_mutants () =
  List.iter
    (fun (m : Programs.mutant) ->
      let row = Runner.verify (Programs.mutate m) in
      check_bool
        (Fmt.str "%s mutant rejected (%s)" m.bench.Programs.name m.bug)
        false row.Runner.report.Liquid_driver.Pipeline.safe)
    Programs.mutants

(* ------------------------------------------------------------------ *)
(* Overview examples: inferred types match the paper's figures          *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_overview () =
  List.iter
    (fun (ex : Overview.example) ->
      let r = Liquid_driver.Pipeline.verify_string ~name:ex.Overview.name ex.Overview.source in
      check_bool (ex.Overview.name ^ " safe") true r.Liquid_driver.Pipeline.safe;
      List.iter
        (fun (item, fragment) ->
          let _, t =
            List.find
              (fun (x, _) -> Liquid_common.Ident.to_string x = item)
              r.Liquid_driver.Pipeline.item_types
          in
          let s = Fmt.str "%a" Liquid_infer.Rtype.pp t in
          check_bool
            (Fmt.str "%s: %s type contains %S (got %s)" ex.Overview.name item
               fragment s)
            true (contains s fragment))
        ex.Overview.expectations)
    Overview.all

(* ------------------------------------------------------------------ *)
(* Qualifier ablation: benchmarks that need an extra qualifier fail    *)
(* cleanly without it (they are not vacuously safe), every failure is  *)
(* fully explained, and the explanations do not depend on the run: a   *)
(* second run renders byte-identical JSON.                             *)
(* ------------------------------------------------------------------ *)

let test_qualifier_ablation () =
  let module Pipeline = Liquid_driver.Pipeline in
  let module Explain = Liquid_explain.Explain in
  let run (b : Programs.benchmark) =
    Pipeline.verify_string
      ~options:
        {
          Pipeline.default with
          Pipeline.quals = Liquid_infer.Qualifier.defaults;
          mine = false;
          explain = true;
        }
      ~name:(b.Programs.name ^ ".ml") b.Programs.source
  in
  let explanations_json (r : Pipeline.report) =
    Liquid_analysis.Json.to_string
      (Liquid_analysis.Json.List
         (List.map Pipeline.json_of_explanation r.Pipeline.explanations))
  in
  List.iter
    (fun name ->
      let b = Programs.find name in
      let report = run b in
      check_bool
        (name ^ " fails without its extra qualifier")
        false report.Pipeline.safe;
      check_bool (name ^ ": failures are explained") true
        (report.Pipeline.explanations <> []);
      List.iter
        (fun (ex : Explain.explanation) ->
          check_bool (name ^ ": explanation leaves nothing unexplained") true
            (ex.Explain.ex_unexplained = None))
        report.Pipeline.explanations;
      Alcotest.(check string)
        (name ^ ": explanations byte-identical on a second run")
        (explanations_json report)
        (explanations_json (run b)))
    [ "tower"; "simplex"; "gauss"; "bcopy" ]

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  List.map
    (fun (b : Programs.benchmark) ->
      (if List.mem b.Programs.name [ "tower"; "fft"; "simplex" ] then slow
       else tc)
        ("verify " ^ b.Programs.name)
        (fun () -> test_benchmark b.Programs.name))
    Programs.all
  @ [
      tc "execute all benchmarks" test_execution;
      slow "mutants are rejected" test_mutants;
      tc "overview examples match the paper" test_overview;
      slow "extra qualifiers are necessary" test_qualifier_ablation;
    ]
