(* The paper's soundness theorem, as a property test.

   We generate random NanoML programs that allocate arrays and access
   them through a mix of guarded and unguarded indices, then check:

     if the verifier reports SAFE, executing the program raises neither
     Bounds_violation nor Assertion_failure.

   This exercises the full pipeline adversarially: most generated
   programs are rejected (the generator plants plenty of dubious
   accesses), and the accepted ones must really be safe.  We also track
   that the verifier is not vacuous — over the generator's distribution
   both verdicts occur. *)

let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  (* a random loop body accessing a.(expr) for various index expressions *)
  let* size = int_range 1 20 in
  let* style = int_range 0 5 in
  let* off = int_range 0 3 in
  let body =
    match style with
    | 0 -> "a.(i) <- i" (* safe: i < len a from the loop guard *)
    | 1 -> Printf.sprintf "a.(i + %d) <- 0" off (* safe iff off = 0 *)
    | 2 -> "if i + 1 < n then a.(i + 1) <- a.(i) else ()" (* safe *)
    | 3 -> Printf.sprintf "a.(n - %d) <- 1" off (* safe iff 0 < off <= n *)
    | 4 -> "if 0 <= i - 1 then a.(i - 1) <- 2 else ()" (* safe *)
    | _ -> "a.(2 * i) <- 3" (* unsafe for i > n/2 *)
  in
  let* bound = oneofl [ "i < n"; "i <= n"; "i < n - 1" ] in
  return
    (Printf.sprintf
       {|
let n = %d
let a = Array.make n 0
let rec loop i =
  if %s then begin
    %s;
    loop (i + 1)
  end else ()
let main = loop 0
|}
       size bound body)

let counts = ref (0, 0) (* safe, unsafe *)

let prop_safe_programs_do_not_trap =
  QCheck.Test.make ~count:150 ~name:"verified programs never trap at runtime"
    (QCheck.make gen_program)
    (fun src ->
      match Liquid_driver.Pipeline.verify_string ~name:"rand.ml" src with
      | exception Liquid_driver.Pipeline.Source_error _ ->
          QCheck.assume_fail ()
      | report ->
          let safe = report.Liquid_driver.Pipeline.safe in
          let s, u = !counts in
          counts := (if safe then (s + 1, u) else (s, u + 1));
          if not safe then true
          else begin
            (* accepted: execution must not trap *)
            let prog = Liquid_lang.Parser.program_of_string ~file:"rand.ml" src in
            match Liquid_eval.Eval.run_program ~fuel:200_000 prog with
            | _ -> true
            | exception Liquid_eval.Eval.Bounds_violation _ -> false
            | exception Liquid_eval.Eval.Assertion_failure _ -> false
            | exception Liquid_eval.Eval.Out_of_fuel -> true
          end)

(* The weakening engine against its naive reference on the same
   programs: [Fixpoint.solve] must reach the naive Kleene solve's
   solution per κ and the naive concrete pass's failures (see
   [Elim_reference.check_reference]). *)
let prop_engine_equals_naive =
  QCheck.Test.make ~count:60 ~long_factor:10
    ~name:"engine equals the naive reference on generated programs"
    (QCheck.make ~print:Fun.id gen_program)
    (fun src ->
      ignore
        (Elim_reference.check_reference (Elim_reference.system "rand.ml" src));
      true)

(* The converse direction is not a theorem (inference is incomplete),
   but the generator's style-0/2/4 programs with bound "i < n" are
   simple enough that the system should accept them: a completeness
   smoke test that the verifier is not trivially rejecting everything. *)
let test_simple_accepted () =
  let src =
    {|
let n = 10
let a = Array.make n 0
let rec loop i =
  if i < n then begin
    a.(i) <- i;
    (if i + 1 < n then a.(i + 1) <- a.(i) else ());
    (if 0 <= i - 1 then a.(i - 1) <- 2 else ());
    loop (i + 1)
  end else ()
let main = loop 0
|}
  in
  Alcotest.(check bool)
    "simple guarded program accepted" true
    (Liquid_driver.Pipeline.verify_string src).Liquid_driver.Pipeline.safe

(* And rejected programs must really be flagged for a reason: spot-check
   that an unguarded doubled index is refused. *)
let test_unsafe_rejected () =
  let src =
    {|
let n = 10
let a = Array.make n 0
let rec loop i =
  if i < n then begin
    a.(2 * i) <- 3;
    loop (i + 1)
  end else ()
let main = loop 0
|}
  in
  Alcotest.(check bool)
    "doubled index rejected" false
    (Liquid_driver.Pipeline.verify_string src).Liquid_driver.Pipeline.safe

let test_both_verdicts_occur () =
  let s, u = !counts in
  Alcotest.(check bool)
    (Printf.sprintf "generator hit both verdicts (safe=%d unsafe=%d)" s u)
    true
    (s > 0 && u > 0)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_safe_programs_do_not_trap;
    QCheck_alcotest.to_alcotest prop_engine_equals_naive;
    Alcotest.test_case "generator produced both verdicts" `Quick
      test_both_verdicts_occur;
    Alcotest.test_case "simple guarded program accepted" `Quick
      test_simple_accepted;
    Alcotest.test_case "unguarded doubled index rejected" `Quick
      test_unsafe_rejected;
  ]
