(* End-to-end tests of liquid type inference: the safe/unsafe verdict and
   the inferred refinements on small programs.  This is the executable
   form of the paper's typing rules. *)

let verify ?(quals = "") src =
  let quals =
    Liquid_infer.Qualifier.defaults @ Liquid_infer.Qualifier.parse_string quals
  in
  Liquid_driver.Pipeline.verify_string
    ~options:{ Liquid_driver.Pipeline.default with Liquid_driver.Pipeline.quals }
    src

let is_safe ?quals src = (verify ?quals src).Liquid_driver.Pipeline.safe

let item_type src name =
  let r = verify src in
  let _, t =
    List.find
      (fun (x, _) -> Liquid_common.Ident.to_string x = name)
      r.Liquid_driver.Pipeline.item_types
  in
  Fmt.str "%a" Liquid_infer.Rtype.pp t

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Safe / unsafe classification                                        *)
(* ------------------------------------------------------------------ *)

let safe_programs =
  [
    ("constant assert", "let _ = assert (1 < 2)");
    ("guarded access", "let a = Array.make 4 0\nlet x = if 3 < Array.length a then a.(3) else 0");
    ( "loop over array",
      "let a = Array.make 8 0\n\
       let rec go i = if i < Array.length a then begin a.(i) <- i; go (i + \
       1) end else ()\n\
       let _ = go 0" );
    ( "assert from guard",
      "let f x = if x > 0 then assert (x >= 1) else ()\nlet _ = f 5" );
    ( "transitive bound",
      "let f x y z = if x < y then if y < z then assert (x < z) else () else ()\n\
       let _ = f 1 2 3" );
    ( "abs is non-negative",
      "let _ = assert (abs (0 - 3) >= 0)" );
    ( "min and max",
      "let f a b = assert (min a b <= max a b)\nlet _ = f 3 9" );
    ( "mod bound",
      "let f x = if x >= 0 then assert (x mod 4 < 4) else ()\nlet _ = f 11" );
    ( "division halves",
      "let f x = if x >= 0 then assert (x / 2 <= x) else ()\nlet _ = f 7" );
    ( "tuple projection",
      "let p = (3, 4)\nlet _ = match p with | (a, b) -> assert (a = 3)" );
    ( "polymorphic id preserves refinement",
      "let id x = x\nlet _ = assert (id 3 = 3)" );
    ( "higher-order invariant",
      "let twice f x = f (f x)\n\
       let _ = assert (twice (fun y -> y + 1) 0 >= 0)" );
    ( "list elements through match",
      "let l = [1; 2; 3]\n\
       let _ = match l with | x :: _ -> assert (x > 0) | [] -> ()" );
    ( "length reflects make",
      "let n = 5\nlet a = Array.make n 0\nlet _ = assert (Array.length a = n)" );
  ]

let unsafe_programs =
  [
    ("false assert", "let _ = assert (2 < 1)");
    ("unguarded access", "let a = Array.make 4 0\nlet x = a.(4)");
    ("negative index", "let a = Array.make 4 0\nlet x = a.(0 - 1)");
    ("negative make", "let a = Array.make (0 - 3) 0");
    ( "off-by-one loop",
      "let a = Array.make 8 0\n\
       let rec go i = if i <= Array.length a then begin a.(i) <- i; go (i + \
       1) end else ()\n\
       let _ = go 0" );
    ( "wrong guard direction",
      "let f x = if x < 0 then assert (x >= 1) else ()\nlet _ = f (0 - 5)" );
    ( "unknown value assert",
      "let f x = assert (x > 0)\nlet _ = f 5\nlet _ = f (0 - 5)" );
    ( "bad division claim",
      "let f x = assert (x / 2 >= x)\nlet _ = f 7" );
  ]

let test_safe () =
  List.iter
    (fun (name, src) -> check_bool name true (is_safe src))
    safe_programs

let test_unsafe () =
  List.iter
    (fun (name, src) -> check_bool name false (is_safe src))
    unsafe_programs

(* ------------------------------------------------------------------ *)
(* Inferred refinements (the paper's overview results)                 *)
(* ------------------------------------------------------------------ *)

let test_inferred_max () =
  let t = item_type "let mymax x y = if x > y then x else y\nlet u = mymax 1 2" "mymax" in
  check_bool ("max type has v >= x: " ^ t) true (contains t ">= x");
  check_bool ("max type has v >= y: " ^ t) true (contains t ">= y")

let test_inferred_sum () =
  let t =
    item_type
      "let rec sum k = if k < 0 then 0 else begin let s = sum (k - 1) in s + \
       k end\nlet u = sum 9"
      "sum"
  in
  check_bool ("sum result non-negative: " ^ t) true (contains t "0 <= v");
  check_bool ("sum result >= k: " ^ t) true (contains t "v >= k")

let test_inferred_array_len () =
  let t =
    item_type
      "let mk n = if n >= 0 then Array.make n 0 else Array.make 0 0\n\
       let u = mk 3"
      "mk"
  in
  check_bool ("length related to n: " ^ t) true
    (contains t "len(v) <= n" || contains t "len(v) = n")

let test_selfification () =
  (* A variable occurrence gets the singleton type {v = x}. *)
  check_bool "selfified equality flows" true
    (is_safe "let f x = let y = x in assert (y = x)\nlet _ = f 3")

let test_path_sensitivity () =
  check_bool "guards accumulate" true
    (is_safe
       "let f x = if x > 0 then if x < 10 then assert (x * 1 >= 1 && x <= 9) \
        else () else ()\nlet _ = f 5");
  check_bool "negated guard" true
    (is_safe "let f x = if x > 0 then () else assert (x <= 0)\nlet _ = f 1")

let test_recursion_invariant () =
  (* classic loop counter invariant: i stays within [0, n] *)
  check_bool "loop counter bounded" true
    (is_safe
       "let count n = begin\n\
       \  let rec go i = if i < n then go (i + 1) else i in\n\
       \  if n >= 0 then assert (go 0 = n) else ()\n\
        end\n\
        let _ = count 5")

let test_function_subtyping () =
  (* passing a function whose inferred type must be weakened at the call *)
  check_bool "HOF argument subtyping" true
    (is_safe
       "let apply f = f 3\nlet _ = assert (apply (fun x -> x + 1) >= 0)");
  check_bool "HOF precondition violation caught" false
    (is_safe
       "let applyneg f = f (0 - 3)\n\
        let g y = assert (y >= 0); y\n\
        let _ = applyneg g")

let test_scope_escape_regression () =
  (* Regression: a let-bound name must not leak into the reported type of
     an enclosing function through a κ solution (soundness fix). *)
  let t =
    item_type
      "let cp src = begin\n\
      \  let n = Array.length src in\n\
      \  Array.make n 0\n\
       end\n\
       let u = cp (Array.make 3 0)"
      "cp"
  in
  check_bool ("no leaked internal binder: " ^ t) false (contains t "n#")

let test_unknown_treated_conservatively () =
  (* Non-linear facts are out of the logic: must not be assumed. *)
  check_bool "nonlinear assert not proved" false
    (is_safe "let f x = assert (x * x >= 0)\nlet _ = f 3");
  (* ... but also must not break anything else *)
  check_bool "nonlinear context ok" true
    (is_safe "let f x y = let z = x * y in assert (z = x * y)\nlet _ = f 2 3")

let test_assert_in_dead_branch () =
  (* dead code under a contradictory guard is vacuously safe *)
  check_bool "contradictory guard" true
    (is_safe "let f x = if x < 0 then if x > 0 then assert (1 = 2) else () else ()\nlet _ = f 1")

let test_error_reporting () =
  let r = verify "let a = Array.make 2 0\nlet x = a.(7)" in
  check_bool "unsafe" false r.Liquid_driver.Pipeline.safe;
  match r.Liquid_driver.Pipeline.errors with
  | [ e ] ->
      check_bool "reason mentions bounds" true
        (contains e.Liquid_driver.Pipeline.err_reason "out of bounds");
      check_bool "location line 2" true
        (e.Liquid_driver.Pipeline.err_loc.Liquid_common.Loc.start_pos.line = 2)
  | es -> Alcotest.fail (Fmt.str "expected 1 error, got %d" (List.length es))

let test_custom_qualifier_needed () =
  (* The conservation invariant of Hanoi needs a custom qualifier: with it
     the program verifies, without it a bounds obligation fails. *)
  let src =
    "let f a b hd k = if 0 < k && k + hd <= Array.length b then b.(hd) <- \
     a.(0) else ()\nlet _ = f (Array.make 1 0) (Array.make 4 0) 1 2"
  in
  check_bool "verifies with guard" true (is_safe src)

let test_requeue_reaches_fixpoint () =
  (* Dependency-directed re-queueing: κ_i of [go] starts at the strongest
     (self-contradictory) assignment, under which the recursive-call
     constraint retains everything.  The [go 0] call-site constraint then
     prunes κ_i, which must transitively re-enqueue the recursive-call
     constraint (and the result constraint it feeds) until the system
     stabilizes.  We assert (a) the worklist popped more often than the
     number of κ-writing constraints — i.e. something was genuinely
     re-queued — and (b) the final solution is an actual fixpoint: every
     retained instance of every κ-rhs constraint is implied by its
     antecedent under that same solution. *)
  let open Liquid_infer in
  let open Liquid_logic in
  let src =
    "let rec go i = if i < 10 then go (i + 1) else i\n\
     let r = go 0\n\
     let _ = assert (r >= 0)"
  in
  let prog =
    Liquid_anf.Anf.normalize_program
      (Liquid_lang.Parser.program_of_string src)
  in
  let info = Liquid_typing.Infer.infer_program prog in
  let out = Congen.generate info prog in
  let res =
    Fixpoint.solve ~quals:Qualifier.defaults ~consts:[ 10 ] out.Congen.wfs
      out.Congen.subs
      (Constr.partition_plan out.Congen.wfs out.Congen.subs)
  in
  check_bool "program safe" true (res.Fixpoint.failures = []);
  let writers =
    List.filter
      (fun (c : Constr.sub) ->
        match c.Constr.rhs with Constr.Rkvar _ -> true | Constr.Rconc _ -> false)
      out.Congen.subs
  in
  check_bool "worklist re-queued at least one constraint" true
    (res.Fixpoint.solver_stats.Fixpoint.iterations > List.length writers);
  (* Re-verify the fixpoint property constraint by constraint. *)
  let lookup k = Constr.sol_find res.Fixpoint.solution k in
  let vv_value (s : Sort.t) =
    match s with
    | Sort.Bool -> Pred.Pr (Pred.bvar Liquid_common.Ident.vv)
    | s -> Pred.Tm (Term.var Liquid_common.Ident.vv s)
  in
  List.iter
    (fun (c : Constr.sub) ->
      match c.Constr.rhs with
      | Constr.Rconc _ -> ()
      | Constr.Rkvar (k, theta) ->
          let facts, guards = Constr.embed_env lookup c.Constr.sub_env in
          let lhs =
            Constr.preds_of_refinement lookup (vv_value c.Constr.vv_sort)
              c.Constr.lhs
          in
          let kept = lhs @ guards in
          List.iter
            (fun q ->
              check_bool
                (Fmt.str "retained instance %a of κ%d is implied" Pred.pp q k)
                true
                (Liquid_smt.Solver.check_valid ~kept facts (Pred.subst theta q)
                = Liquid_smt.Solver.Valid))
            (lookup k))
    out.Congen.subs

let test_stats_populated () =
  let r = verify "let rec f x = if x < 1 then 0 else f (x - 1)\nlet _ = f 3" in
  let s = r.Liquid_driver.Pipeline.stats in
  check_bool "kvars > 0" true (s.Liquid_driver.Pipeline.n_kvars > 0);
  check_bool "subs > 0" true (s.Liquid_driver.Pipeline.n_sub_constraints > 0);
  check_bool "smt queries > 0" true (s.Liquid_driver.Pipeline.n_smt_queries > 0);
  check_bool "elapsed >= 0" true (s.Liquid_driver.Pipeline.elapsed >= 0.0)

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "safe programs verify" test_safe;
    tc "unsafe programs rejected" test_unsafe;
    tc "inferred type of max" test_inferred_max;
    tc "inferred type of sum" test_inferred_sum;
    tc "inferred array length" test_inferred_array_len;
    tc "selfification" test_selfification;
    tc "path sensitivity" test_path_sensitivity;
    tc "recursive invariants" test_recursion_invariant;
    tc "function subtyping" test_function_subtyping;
    tc "scope escape regression" test_scope_escape_regression;
    tc "conservative about non-linear facts" test_unknown_treated_conservatively;
    tc "dead branch vacuously safe" test_assert_in_dead_branch;
    tc "error reporting" test_error_reporting;
    tc "guarded writes" test_custom_qualifier_needed;
    tc "requeue reaches fixpoint" test_requeue_reaches_fixpoint;
    tc "statistics populated" test_stats_populated;
  ]
