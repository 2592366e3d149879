(* Tests for the driver pipeline: line counting, constant mining, error
   paths, and report rendering. *)

open Liquid_driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_count_lines () =
  check_int "blank and comment lines skipped" 2
    (Pipeline.count_lines "let x = 1\n\n(* comment *)\nlet y = 2\n");
  check_int "empty source" 0 (Pipeline.count_lines "\n\n");
  (* lines ending (or wholly contained) inside a block comment are not
     code; nesting is tracked across lines *)
  check_int "multi-line comment interior skipped" 2
    (Pipeline.count_lines "let x = 1\n(* a\n   b\n*)\nlet y = 2\n");
  check_int "code before a comment opening still counts" 2
    (Pipeline.count_lines "let x = 1 (* c\n*) let y = 2\n");
  check_int "nested comments close correctly" 1
    (Pipeline.count_lines "(* a (* b *) still comment *)\nlet z = 1\n");
  check_int "no trailing newline" 1 (Pipeline.count_lines "let x = 1")

let test_mine_constants () =
  let prog =
    Liquid_lang.Parser.program_of_string
      "let f i = if i < 10 then i + 42 else i mod 7\n\
       let g x = if x = 0 - 3 then 1 else 2"
  in
  let consts = Pipeline.mine_constants prog in
  check_bool "comparison literal mined" true (List.mem 10 consts);
  check_bool "arithmetic literal not mined" false (List.mem 42 consts);
  check_bool "mod operand not mined" false (List.mem 7 consts);
  let sizes =
    Pipeline.mine_constants
      (Liquid_lang.Parser.program_of_string "let a = Array.make 8 0")
  in
  check_bool "literal array size mined" true (List.mem 8 sizes)

(* Regression: constants are mined from the pre-ANF source AST, and the
   mined qualifiers are what make this program verifiable — [count]'s
   result type needs the upper bound [v <= 16], which only exists because
   16 is mined from the comparison (no variable-pattern qualifier can
   express it: the bound is out of scope at the recursive result). *)
let test_mined_constant_enables_proof () =
  let src =
    "let rec count n = if n >= 16 then 16 else count (n + 1)\n\
     let main () =\n\
    \  let a = Array.make 17 0 in\n\
    \  Array.get a (count 0)"
  in
  let mined =
    Pipeline.verify_string
      ~options:{ Pipeline.default with Pipeline.mine = true }
      src
  in
  let unmined =
    Pipeline.verify_string
      ~options:{ Pipeline.default with Pipeline.mine = false }
      src
  in
  check_bool "safe with mined constants" true mined.Pipeline.safe;
  check_bool "unsafe without mining" false unmined.Pipeline.safe

let test_phase_timings () =
  let r =
    Pipeline.verify_string
      ~options:{ Pipeline.default with Pipeline.lint = true }
      "let x = assert (1 < 2)"
  in
  check_bool "phases reported in pipeline order" true
    (List.map fst r.Pipeline.stats.Pipeline.phases
    = [
        "parse";
        "anf";
        "hm";
        "congen";
        "partition";
        "solve";
        "lint";
      ]);
  check_bool "phase times are non-negative" true
    (List.for_all (fun (_, t) -> t >= 0.0) r.Pipeline.stats.Pipeline.phases);
  let sum =
    List.fold_left (fun acc (_, t) -> acc +. t) 0.0
      r.Pipeline.stats.Pipeline.phases
  in
  check_bool "elapsed is the sum of the phases" true
    (Float.abs (r.Pipeline.stats.Pipeline.elapsed -. sum) < 1e-9);
  let plain = Pipeline.verify_string "let x = assert (1 < 2)" in
  check_bool "no lint phase without lint" true
    (not (List.mem_assoc "lint" plain.Pipeline.stats.Pipeline.phases));
  let sum_plain =
    List.fold_left (fun acc (_, t) -> acc +. t) 0.0
      plain.Pipeline.stats.Pipeline.phases
  in
  check_bool "elapsed is the sum of the phases (no lint)" true
    (Float.abs (plain.Pipeline.stats.Pipeline.elapsed -. sum_plain) < 1e-9)

(* Regression: the lint pass used to inflate [n_smt_queries]; its queries
   must be accounted separately and excluded from the solver total. *)
let test_lint_queries_not_double_counted () =
  let src = Liquid_suite.Programs.dotprod.Liquid_suite.Programs.source in
  let plain = Pipeline.verify_string src in
  let linted =
    Pipeline.verify_string
      ~options:{ Pipeline.default with Pipeline.lint = true }
      src
  in
  check_int "lint pass leaves the solver query count unchanged"
    plain.Pipeline.stats.Pipeline.n_smt_queries
    linted.Pipeline.stats.Pipeline.n_smt_queries;
  check_bool "lint queries counted separately" true
    (linted.Pipeline.stats.Pipeline.n_lint_smt_queries > 0);
  check_int "no lint queries without lint" 0
    plain.Pipeline.stats.Pipeline.n_lint_smt_queries

let test_parse_error_location () =
  match Pipeline.verify_string "let x = (1 +" with
  | exception Pipeline.Source_error (msg, _) ->
      check_bool "mentions parse" true
        (String.length msg >= 5 && String.sub msg 0 5 = "parse")
  | _ -> Alcotest.fail "expected Source_error"

let test_type_error () =
  match Pipeline.verify_string "let x = 1 + true" with
  | exception Pipeline.Source_error (msg, _) ->
      check_bool "mentions type" true
        (String.length msg >= 4 && String.sub msg 0 4 = "type")
  | _ -> Alcotest.fail "expected Source_error"

let test_unbound_variable () =
  check_bool "unbound rejected" true
    (match Pipeline.verify_string "let x = nope" with
    | exception Pipeline.Source_error _ -> true
    | _ -> false)

let test_report_rendering () =
  let r = Pipeline.verify_string "let a = Array.make 4 0\nlet x = a.(9)" in
  let s = Fmt.str "%a" Pipeline.pp_report r in
  let contains needle =
    let lh = String.length s and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub s i ln = needle || go (i + 1)) in
    go 0
  in
  check_bool "verdict rendered" true (contains "UNSAFE");
  check_bool "location rendered" true (contains ":2.");
  check_bool "counterexample rendered" true (contains "counterexample")

let test_safe_rendering () =
  let r = Pipeline.verify_string "let x = assert (1 < 2)" in
  let s = Fmt.str "%a" Pipeline.pp_report r in
  check_bool "SAFE rendered" true
    (let rec go i =
       i + 4 <= String.length s && (String.sub s i 4 = "SAFE" || go (i + 1))
     in
     go 0)

let test_deterministic_verdicts () =
  (* re-verification is stable (global counters advance, results don't) *)
  let src = Liquid_suite.Programs.dotprod.Liquid_suite.Programs.source in
  let r1 = Pipeline.verify_string src in
  let r2 = Pipeline.verify_string src in
  check_bool "same verdict" true
    (r1.Pipeline.safe = r2.Pipeline.safe);
  check_int "same error count"
    (List.length r1.Pipeline.errors)
    (List.length r2.Pipeline.errors)

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "count_lines" test_count_lines;
    tc "mine_constants" test_mine_constants;
    tc "mined constants enable proofs" test_mined_constant_enables_proof;
    tc "per-phase timings" test_phase_timings;
    tc "lint queries not double-counted" test_lint_queries_not_double_counted;
    tc "parse errors surface" test_parse_error_location;
    tc "type errors surface" test_type_error;
    tc "unbound variables surface" test_unbound_variable;
    tc "unsafe report rendering" test_report_rendering;
    tc "safe report rendering" test_safe_rendering;
    tc "verdicts are deterministic" test_deterministic_verdicts;
  ]
