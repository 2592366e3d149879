(* Tests for the SMT substrate: rationals, simplex, LIA, congruence
   closure, and the combined validity checker. *)

open Liquid_logic
open Liquid_smt
let tlen t = Term.app Symbol.len [ t ]

let x = Term.var "x" Sort.Int
let y = Term.var "y" Sort.Int
let z = Term.var "z" Sort.Int
let a_obj = Term.var "a" Sort.Obj
let b_obj = Term.var "b" Sort.Obj
let i n = Term.int n

let valid hyps goal = Solver.check_valid hyps goal = Solver.Valid
let invalid hyps goal =
  match Solver.check_valid hyps goal with Solver.Invalid _ -> true | _ -> false

let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual

(* ------------------------------------------------------------------ *)
(* Rationals                                                           *)
(* ------------------------------------------------------------------ *)

let test_rat_basic () =
  let open Rat in
  check_bool "1/2 + 1/3 = 5/6" true (equal (add (make 1 2) (make 1 3)) (make 5 6));
  check_bool "2/4 normalizes" true (equal (make 2 4) (make 1 2));
  check_bool "-1/-2 normalizes" true (equal (make (-1) (-2)) (make 1 2));
  check_bool "floor 7/2" true (floor (make 7 2) = 3);
  check_bool "floor -7/2" true (floor (make (-7) 2) = -4);
  check_bool "ceil 7/2" true (ceil (make 7 2) = 4);
  check_bool "ceil -7/2" true (ceil (make (-7) 2) = -3);
  check_bool "compare 1/3 < 1/2" true (lt (make 1 3) (make 1 2));
  check_bool "mul" true (equal (mul (make 2 3) (make 3 4)) (make 1 2));
  check_bool "div" true (equal (div (make 1 2) (make 1 4)) (of_int 2))

let test_rat_overflow () =
  let big = Rat.of_int max_int in
  check_bool "overflow raises" true
    (try
       ignore (Rat.mul big big);
       false
     with Rat.Overflow -> true)

(* ------------------------------------------------------------------ *)
(* Simplex                                                             *)
(* ------------------------------------------------------------------ *)

let le exp rhs = Simplex.cons exp Simplex.Le rhs
let ge exp rhs = Simplex.cons exp Simplex.Ge rhs
let eq exp rhs = Simplex.cons exp Simplex.Eq rhs

let test_simplex_sat () =
  (* x >= 1, y >= 1, x + y <= 3 *)
  let v0 = Linexp.var 0 and v1 = Linexp.var 1 in
  match
    Simplex.solve ~nvars:2 [ ge v0 Rat.one; ge v1 Rat.one; le (Linexp.add v0 v1) (Rat.of_int 3) ]
  with
  | `Sat m ->
      check_bool "x >= 1" true (Rat.le Rat.one m.(0));
      check_bool "y >= 1" true (Rat.le Rat.one m.(1));
      check_bool "x + y <= 3" true (Rat.le (Rat.add m.(0) m.(1)) (Rat.of_int 3))
  | `Unsat _ -> Alcotest.fail "expected sat"

let test_simplex_unsat () =
  (* x >= 2, x <= 1 is unsat; also via sums *)
  let v0 = Linexp.var 0 and v1 = Linexp.var 1 in
  (match Simplex.solve ~nvars:1 [ ge v0 (Rat.of_int 2); le v0 Rat.one ] with
  | `Unsat _ -> ()
  | `Sat _ -> Alcotest.fail "expected unsat (bounds)");
  (* x + y >= 4, x <= 1, y <= 2 *)
  match
    Simplex.solve ~nvars:2
      [ ge (Linexp.add v0 v1) (Rat.of_int 4); le v0 Rat.one; le v1 (Rat.of_int 2) ]
  with
  | `Unsat _ -> ()
  | `Sat _ -> Alcotest.fail "expected unsat (sum)"

let test_simplex_eq_chain () =
  (* x = y, y = z, x = 5 => model gives z = 5 *)
  let v0 = Linexp.var 0 and v1 = Linexp.var 1 and v2 = Linexp.var 2 in
  match
    Simplex.solve ~nvars:3
      [
        eq (Linexp.sub v0 v1) Rat.zero;
        eq (Linexp.sub v1 v2) Rat.zero;
        eq v0 (Rat.of_int 5);
      ]
  with
  | `Sat m -> check_bool "z = 5" true (Rat.equal m.(2) (Rat.of_int 5))
  | `Unsat _ -> Alcotest.fail "expected sat"

(* ------------------------------------------------------------------ *)
(* LIA                                                                 *)
(* ------------------------------------------------------------------ *)

let lia_unsat = function Lia.Unsat _ -> true | _ -> false

let test_lia_integrality () =
  (* 2x = 1 is rationally sat but integrally unsat (gcd test). *)
  let c =
    { Lia.exp = Linexp.var ~coeff:(Rat.of_int 2) 0; op = Lia.Eq; rhs = Rat.one }
  in
  check_bool "2x = 1 unsat over Z" true (lia_unsat (Lia.check ~nvars:1 [ c ]))

let test_lia_tightening () =
  (* x < 1 and x > -1 forces x = 0 over Z; adding x != 0 via x >= 1 is unsat *)
  let v0 = Linexp.var 0 in
  let cs =
    [
      { Lia.exp = v0; op = Lia.Lt; rhs = Rat.one };
      { Lia.exp = Linexp.neg v0; op = Lia.Lt; rhs = Rat.one };
      { Lia.exp = Linexp.neg v0; op = Lia.Le; rhs = Rat.of_int (-1) };
    ]
  in
  check_bool "-1 < x < 1 and x >= 1 unsat" true (lia_unsat (Lia.check ~nvars:1 cs))

let test_lia_branch () =
  (* 2x + 2y = 3 : rationally sat, integrally unsat after normalization. *)
  let v0 = Linexp.var 0 and v1 = Linexp.var 1 in
  let c =
    {
      Lia.exp = Linexp.add (Linexp.scale (Rat.of_int 2) v0) (Linexp.scale (Rat.of_int 2) v1);
      op = Lia.Eq;
      rhs = Rat.of_int 3;
    }
  in
  check_bool "2x + 2y = 3 unsat over Z" true (lia_unsat (Lia.check ~nvars:2 [ c ]))

(* ------------------------------------------------------------------ *)
(* Congruence closure                                                  *)
(* ------------------------------------------------------------------ *)

let test_cc_congruence () =
  let cc = Cc.create () in
  let a = Cc.var cc 0 and b = Cc.var cc 1 in
  let fa = Cc.app cc Symbol.len [ a ] and fb = Cc.app cc Symbol.len [ b ] in
  check_bool "len a != len b initially" false (Cc.equal cc fa fb);
  Cc.assert_eq cc a b;
  check_bool "a = b => len a = len b" true (Cc.equal cc fa fb);
  check_bool "no conflict" true (Cc.ok cc)

let test_cc_transitive () =
  let cc = Cc.create () in
  let a = Cc.var cc 0 and b = Cc.var cc 1 and c = Cc.var cc 2 in
  Cc.assert_eq cc a b;
  Cc.assert_eq cc b c;
  check_bool "a = c by transitivity" true (Cc.equal cc a c)

let test_cc_conflict () =
  let cc = Cc.create () in
  let a = Cc.var cc 0 and b = Cc.var cc 1 in
  Cc.assert_ne cc a b;
  Cc.assert_eq cc a b;
  check_bool "conflict detected" false (Cc.ok cc)

let test_cc_constants () =
  let cc = Cc.create () in
  let c1 = Cc.const cc 1 and c2 = Cc.const cc 2 in
  let a = Cc.var cc 0 in
  Cc.assert_eq cc a c1;
  Cc.assert_eq cc a c2;
  check_bool "1 = 2 conflict" false (Cc.ok cc)

let test_cc_nested () =
  (* a = b => f(f(a)) = f(f(b)) with f = len (arity 1, any sorts ok here) *)
  let cc = Cc.create () in
  let a = Cc.var cc 0 and b = Cc.var cc 1 in
  let f t = Cc.app cc Symbol.len [ t ] in
  let ffa = f (f a) and ffb = f (f b) in
  Cc.assert_eq cc a b;
  check_bool "f(f(a)) = f(f(b))" true (Cc.equal cc ffa ffb)

(* ------------------------------------------------------------------ *)
(* End-to-end validity                                                 *)
(* ------------------------------------------------------------------ *)

let test_valid_arith () =
  check_bool "x <= y /\\ y <= z => x <= z" true
    (valid [ Pred.le x y; Pred.le y z ] (Pred.le x z));
  check_bool "x < y => x <= y - 1 (ints)" true
    (valid [ Pred.lt x y ] (Pred.le x (Term.sub y (i 1))));
  check_bool "x <= y does not imply x < y" true
    (invalid [ Pred.le x y ] (Pred.lt x y));
  check_bool "0 <= x /\\ x < n => 0 <= x+1" true
    (valid [ Pred.le (i 0) x; Pred.lt x y ] (Pred.le (i 0) (Term.add x (i 1))));
  check_bool "x = 2y => x != 3 (parity)" true
    (valid [ Pred.eq x (Term.mul (i 2) y) ] (Pred.ne x (i 3)))

let test_valid_bool_structure () =
  let p = Pred.bvar "p" and q = Pred.bvar "q" in
  check_bool "p /\\ (p => q) |= q" true (valid [ p; Pred.imp p q ] q);
  check_bool "p \\/ q, ~p |= q" true (valid [ Pred.or_ p q; Pred.not_ p ] q);
  check_bool "p does not imply q" true (invalid [ p ] q);
  check_bool "iff works" true
    (valid [ Pred.iff p (Pred.lt x y); Pred.lt x y ] p)

let test_valid_euf () =
  check_bool "a = b => len a = len b" true
    (valid [ Pred.eq a_obj b_obj ] (Pred.eq (tlen a_obj) (tlen b_obj)));
  check_bool "len a = 5 /\\ x < len a => x < 5" true
    (valid
       [ Pred.eq (tlen a_obj) (i 5); Pred.lt x (tlen a_obj) ]
       (Pred.lt x (i 5)));
  check_bool "len a = len b not implied by nothing" true
    (invalid [] (Pred.eq (tlen a_obj) (tlen b_obj)))

let test_valid_combination () =
  (* LIA -> CC propagation: x <= y /\ y <= x => mul(x,z) = mul(y,z) *)
  let mulxz = Term.app Symbol.mul [ x; z ] in
  let mulyz = Term.app Symbol.mul [ y; z ] in
  check_bool "x <= y <= x => mul(x,z) = mul(y,z)" true
    (valid [ Pred.le x y; Pred.le y x ] (Pred.eq mulxz mulyz));
  (* CC -> LIA: a = b /\ len a >= 4 => len b + 1 >= 5 *)
  check_bool "a = b /\\ len a >= 4 => len b + 1 >= 5" true
    (valid
       [ Pred.eq a_obj b_obj; Pred.ge (tlen a_obj) (i 4) ]
       (Pred.ge (Term.add (tlen b_obj) (i 1)) (i 5)))

let test_array_bounds_shape () =
  (* The exact shape of a liquid array-bounds query:
     0 <= i /\ i < len a /\ i+1 <= len a - 1  |=  0 <= i+1 /\ i+1 < len a *)
  let iv = Term.var "i" Sort.Int in
  let la = tlen a_obj in
  check_bool "bounds obligation" true
    (valid
       [ Pred.le (i 0) iv; Pred.lt iv la; Pred.le (Term.add iv (i 1)) (Term.sub la (i 1)) ]
       (Pred.conj [ Pred.le (i 0) (Term.add iv (i 1)); Pred.lt (Term.add iv (i 1)) la ]));
  check_bool "unprovable bounds obligation rejected" true
    (invalid [ Pred.le (i 0) iv ] (Pred.lt iv la))

let test_diseq_split () =
  (* x != y /\ x <= y => x < y (int disequality split) *)
  check_bool "x != y /\\ x <= y => x + 1 <= y" true
    (valid [ Pred.ne x y; Pred.le x y ] (Pred.le (Term.add x (i 1)) y));
  (* 0 <= x <= 1, x != 0 => x = 1 *)
  check_bool "0 <= x <= 1 /\\ x != 0 => x = 1" true
    (valid
       [ Pred.le (i 0) x; Pred.le x (i 1); Pred.ne x (i 0) ]
       (Pred.eq x (i 1)))

let test_cache_and_stats () =
  Solver.clear_cache ();
  Solver.reset_stats ();
  let q () = valid [ Pred.le x y ] (Pred.le x (Term.add y (i 1))) in
  check_bool "first" true (q ());
  check_bool "second" true (q ());
  check_bool "cache hit recorded" true (Solver.stats.cache_hits >= 1);
  check_bool "queries recorded" true (Solver.stats.queries >= 2)

(* A cache hit on an [Invalid] entry returns the falsifying model the
   fresh check found, not an empty or unrelated one. *)
let test_cached_invalid_cex () =
  Solver.clear_cache ();
  Solver.reset_stats ();
  let hyps = [ Pred.le (i 0) x ] and goal = Pred.le x (i 5) in
  let fresh = Solver.check_valid hyps goal in
  let fresh_cex =
    match fresh with Solver.Invalid cex -> cex | _ -> Alcotest.fail "not Invalid"
  in
  check_bool "fresh check yields a counterexample" true
    (fresh_cex.Solver.display <> [] && fresh_cex.Solver.raw <> []);
  let hits0 = Solver.stats.cache_hits in
  let cached = Solver.check_valid hyps goal in
  check_int "second check was a cache hit" (hits0 + 1) Solver.stats.cache_hits;
  check_bool "cache hit returns the same counterexample" true (cached = fresh)

(* A second [check_query] of a prepared query is answered from the cache
   with the same answer; a cached [Invalid] keeps its model. *)
let test_prepared_queries () =
  Solver.clear_cache ();
  Solver.reset_stats ();
  let hyps = [ Pred.le x y; Pred.le y z ] and goal = Pred.le x z in
  let p = Solver.prepare (Solver.index hyps) goal in
  check_bool "check decides" true (Solver.check_query p = Solver.Valid);
  let hits0 = Solver.stats.cache_hits in
  check_bool "second check agrees" true (Solver.check_query p = Solver.Valid);
  check_int "second check is a cache hit" (hits0 + 1) Solver.stats.cache_hits;
  check_bool "agrees with check_valid" true (valid hyps goal);
  let bad = Solver.prepare (Solver.index hyps) (Pred.lt z x) in
  let fresh = Solver.check_query bad in
  check_bool "bad goal invalid with a model" true
    (match fresh with Solver.Invalid cex -> cex.Solver.display <> [] | _ -> false);
  let hits0 = Solver.stats.cache_hits in
  check_bool "cached Invalid keeps its model" true (Solver.check_query bad = fresh);
  check_int "bad goal's second check is a cache hit" (hits0 + 1)
    Solver.stats.cache_hits

(* The equality exchange runs a bounded number of rounds.  Each round
   here adds one congruence: [x <= y /\ y <= x] forces [x = y], then
   [f1(x) + 1 = f1(y) + 1], and so on up the nest.  When the rounds
   run out with a pair still unseparated, the exchange does not know
   the answer, and the model it holds need not respect congruence: the
   answer is [Unknown], not a counterexample. *)
let nested depth t =
  let rec go k t =
    if k > depth then t
    else
      let f =
        Symbol.declare (Printf.sprintf "nest%d" k)
          { Sort.args = [ Sort.Int ]; result = Sort.Int }
      in
      let app = Term.app f [ t ] in
      go (k + 1) (if k = depth then app else Term.add app (i 1))
  in
  go 1 t

let test_exchange_exhaustion () =
  let answer depth =
    Solver.check_valid [ Pred.le x y; Pred.le y x ]
      (Pred.eq (nested depth x) (nested depth y))
  in
  List.iter
    (fun d ->
      check_bool (Printf.sprintf "depth %d: valid" d) true
        (answer d = Solver.Valid))
    [ 1; 2; 3 ];
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "depth %d: unknown, no invented counterexample" d)
        true
        (answer d = Solver.Unknown))
    [ 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Property tests: cross-check the solver against brute-force          *)
(* evaluation of random formulas over a small integer domain.          *)
(* ------------------------------------------------------------------ *)

let gen_term vars =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      if depth <= 0 then
        oneof [ map Term.int (int_range (-4) 4); oneofl vars ]
      else
        frequency
          [
            (2, map Term.int (int_range (-4) 4));
            (3, oneofl vars);
            (2, map2 Term.add (self (depth - 1)) (self (depth - 1)));
            (2, map2 Term.sub (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun c t -> Term.mul (Term.int c) t) (int_range (-3) 3) (self (depth - 1)));
          ])
    2

let gen_pred ?(term = gen_term) ?(depth = 2) vars =
  let open QCheck.Gen in
  let atom =
    let* t1 = term vars in
    let* t2 = term vars in
    let* rel = oneofl Pred.[ Eq; Ne; Lt; Le; Gt; Ge ] in
    return (Pred.atom t1 rel t2)
  in
  fix
    (fun self depth ->
      if depth <= 0 then atom
      else
        frequency
          [
            (4, atom);
            (2, map Pred.not_ (self (depth - 1)));
            (2, map2 Pred.and_ (self (depth - 1)) (self (depth - 1)));
            (2, map2 Pred.or_ (self (depth - 1)) (self (depth - 1)));
            (1, map2 Pred.imp (self (depth - 1)) (self (depth - 1)));
          ])
    depth

(* The brute-force properties' formulas: Boolean depth 3 over terms with
   products, so that queries reach congruence conflicts and the core
   bisection.  [Pred.eval] multiplies, which is one interpretation of
   the uninterpreted [mul], so a brute-force model is still a model.
   The Invalid-model oracle below keeps linear terms: it multiplies,
   while a solver model values [mul] as uninterpreted. *)
let gen_brute_pred vars =
  let term vars =
    QCheck.Gen.(
      frequency [ (3, gen_term vars); (1, map2 Term.mul (gen_term vars) (gen_term vars)) ])
  in
  gen_pred ~term ~depth:3 vars

(* Brute-force satisfiability over assignments in [-bound, bound]. *)
let brute_sat vars p ~bound =
  let names =
    List.map
      (fun v ->
        match Term.view v with Term.Var (x, _) -> x | _ -> assert false)
      vars
  in
  let rec go env = function
    | [] -> Pred.eval env Liquid_common.Ident.Map.empty p
    | x :: rest ->
        let found = ref false in
        for v = -bound to bound do
          if not !found then
            if go (Liquid_common.Ident.Map.add x v env) rest then found := true
        done;
        !found
  in
  go Liquid_common.Ident.Map.empty names

let prop_solver_agrees_with_brute_force =
  let vars = [ x; y; z ] in
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"solver never refutes a brute-force model"
    (QCheck.make ~print:Pred.to_string (gen_brute_pred vars))
    (fun p ->
      (* If a small model exists, the solver must not report UNSAT.
         (The converse direction needs unbounded search, so we only check
         soundness of UNSAT answers — exactly what liquid inference relies
         on.) *)
      if brute_sat vars p ~bound:4 then Solver.is_sat p else true)

let prop_valid_implications_hold =
  let vars = [ x; y; z ] in
  QCheck.Test.make ~count:300 ~long_factor:10
    ~name:"Valid answers are truly valid on small domain"
    (QCheck.make
       ~print:(fun (h, g) -> Pred.to_string h ^ " => " ^ Pred.to_string g)
       QCheck.Gen.(pair (gen_brute_pred vars) (gen_brute_pred vars)))
    (fun (h, g) ->
      match Solver.check_valid [ h ] g with
      | Solver.Valid ->
          (* No assignment in the small domain may satisfy h /\ ~g. *)
          not (brute_sat vars (Pred.and_ h (Pred.not_ g)) ~bound:4)
      | Solver.Invalid _ | Solver.Unknown -> true)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_solver_agrees_with_brute_force; prop_valid_implications_hold ]

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "rat: basic arithmetic" test_rat_basic;
    tc "rat: overflow detection" test_rat_overflow;
    tc "simplex: satisfiable system" test_simplex_sat;
    tc "simplex: unsatisfiable systems" test_simplex_unsat;
    tc "simplex: equality chain" test_simplex_eq_chain;
    tc "lia: gcd integrality" test_lia_integrality;
    tc "lia: strict tightening" test_lia_tightening;
    tc "lia: branch and bound" test_lia_branch;
    tc "cc: congruence" test_cc_congruence;
    tc "cc: transitivity" test_cc_transitive;
    tc "cc: disequality conflict" test_cc_conflict;
    tc "cc: distinct constants" test_cc_constants;
    tc "cc: nested congruence" test_cc_nested;
    tc "valid: arithmetic" test_valid_arith;
    tc "valid: boolean structure" test_valid_bool_structure;
    tc "valid: uninterpreted functions" test_valid_euf;
    tc "valid: theory combination" test_valid_combination;
    tc "valid: array-bounds query shape" test_array_bounds_shape;
    tc "valid: disequality splitting" test_diseq_split;
    tc "solver: cache and stats" test_cache_and_stats;
    tc "solver: cached Invalid restores counterexample" test_cached_invalid_cex;
    tc "solver: prepared queries" test_prepared_queries;
    tc "theory: an exhausted exchange answers Unknown" test_exchange_exhaustion;
  ]
  @ qcheck_tests

(* ------------------------------------------------------------------ *)
(* Differential testing: Simplex vs Fourier-Motzkin on random systems  *)
(* ------------------------------------------------------------------ *)

(* A system of [1 .. max_cons] constraints over variables [0 .. nvars-1],
   with coefficients drawn from [coeff] and right-hand sides from [rhs].
   A zero coefficient drops its variable, so some constraints, and some
   systems, use fewer than [nvars] variables. *)
let gen_system ~nvars ~max_cons ~coeff ~rhs =
  let open QCheck.Gen in
  let gen_cons =
    let* cs = list_repeat nvars coeff in
    let* rhs = rhs in
    let* op = oneofl [ Simplex.Le; Simplex.Ge; Simplex.Eq ] in
    let exp =
      List.fold_left
        (fun (v, e) c -> (v + 1, Linexp.add_term v (Rat.of_int c) e))
        (0, Linexp.zero) cs
      |> snd
    in
    return (Simplex.cons exp op (Rat.of_int rhs))
  in
  let* n = int_range 1 max_cons in
  list_repeat n gen_cons

(* Three variables: small enough for Fourier-Motzkin, whose work grows
   doubly exponentially with the number of variables. *)
let small_system =
  QCheck.make
    (gen_system ~nvars:3 ~max_cons:7
       ~coeff:QCheck.Gen.(int_range (-3) 3)
       ~rhs:QCheck.Gen.(int_range (-6) 6))

let prop_simplex_agrees_with_fm =
  QCheck.Test.make ~count:500 ~long_factor:10 ~name:"simplex agrees with Fourier-Motzkin"
    small_system
    (fun cs ->
      let simplex =
        match Simplex.solve ~nvars:3 cs with `Sat _ -> `Sat | `Unsat _ -> `Unsat
      in
      simplex = Fm.solve cs)

let prop_simplex_models_check_out =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"simplex models satisfy all constraints"
    small_system
    (fun cs ->
      match Simplex.solve ~nvars:3 cs with
      | `Unsat _ -> true
      | `Sat model ->
          List.for_all
            (fun (c : Simplex.cons) ->
              let v = Linexp.eval (fun i -> model.(i)) c.Simplex.exp in
              match c.Simplex.op with
              | Simplex.Le -> Rat.le v c.Simplex.rhs
              | Simplex.Ge -> Rat.le c.Simplex.rhs v
              | Simplex.Eq -> Rat.equal v c.Simplex.rhs)
            cs)

let prop_lia_refines_rational =
  (* Integer satisfiability implies rational satisfiability; integer
     UNSAT must agree with FM whenever FM is also UNSAT rationally. *)
  QCheck.Test.make ~count:500 ~name:"LIA is between rational SAT and UNSAT"
    small_system
    (fun cs ->
      let lia_cons =
        List.map
          (fun (c : Simplex.cons) ->
            match c.Simplex.op with
            | Simplex.Le -> { Lia.exp = c.Simplex.exp; op = Lia.Le; rhs = c.Simplex.rhs }
            | Simplex.Ge ->
                { Lia.exp = Linexp.neg c.Simplex.exp; op = Lia.Le; rhs = Rat.neg c.Simplex.rhs }
            | Simplex.Eq -> { Lia.exp = c.Simplex.exp; op = Lia.Eq; rhs = c.Simplex.rhs })
          cs
      in
      match (Lia.check ~nvars:3 lia_cons, Fm.solve cs) with
      | Lia.Sat _, `Unsat -> false (* int-sat but rat-unsat: impossible *)
      | Lia.Unsat _, `Unsat -> true
      | Lia.Unsat _, `Sat ->
          true (* rational-sat, integrally unsat: fine (gcd/branching) *)
      | Lia.Sat m, `Sat ->
          (* the integer model must be integral and satisfy everything *)
          Array.for_all Rat.is_integer m
          && List.for_all
               (fun (c : Lia.cons) ->
                 let v = Linexp.eval (fun i -> m.(i)) c.Lia.exp in
                 match c.Lia.op with
                 | Lia.Le -> Rat.le v c.Lia.rhs
                 | Lia.Lt -> Rat.lt v c.Lia.rhs
                 | Lia.Eq -> Rat.equal v c.Lia.rhs)
               lia_cons
      | Lia.Unknown, _ -> true)

(* ------------------------------------------------------------------ *)
(* Differential testing: the sparse-array simplex vs the map-based     *)
(* tableau it replaced (test/simplex_reference.ml), and Rat's integer  *)
(* fast paths vs the general formula                                   *)
(* ------------------------------------------------------------------ *)

let outcome f = match f () with r -> `Ok r | exception Rat.Overflow -> `Overflow

(* Both simplexes on [cs]: their answers (models included, or Overflow)
   and the pivots each spent. *)
let both_simplexes (nvars, cs) =
  let p0 = !Simplex.npivots and r0 = !Simplex_reference.npivots in
  let fast = outcome (fun () -> Simplex.solve ~nvars cs) in
  let slow = outcome (fun () -> Simplex_reference.solve ~nvars cs) in
  (fast, slow, !Simplex.npivots - p0, !Simplex_reference.npivots - r0)

let same_as_reference system =
  let fast, slow, pivots, ref_pivots = both_simplexes system in
  fast = slow && pivots = ref_pivots

(* A system over [1 .. max_vars] variables, with its variable count. *)
let gen_sized_system ~max_vars ~max_cons ~coeff ~rhs =
  QCheck.Gen.(
    let* nvars = int_range 1 max_vars in
    let+ cs = gen_system ~nvars ~max_cons ~coeff ~rhs in
    (nvars, cs))

(* Up to 8 variables and 12 constraints: solves pivot several times
   through fractional tableaux. *)
let prop_simplex_matches_reference =
  QCheck.Test.make ~count:1000 ~long_factor:10
    ~name:"sparse simplex pivots and answers like the map-based tableau"
    (QCheck.make
       QCheck.Gen.(
         gen_sized_system ~max_vars:8 ~max_cons:12 ~coeff:(int_range (-5) 5)
           ~rhs:(int_range (-10) 10)))
    same_as_reference

(* Integers where the overflow checks decide: near 0, near 2^31 (where
   products start to overflow) and near max_int and min_int. *)
let gen_edge_int =
  let open QCheck.Gen in
  let* base = oneofl [ 0; 1 lsl 31; max_int; min_int ] in
  let* k = int_range 0 3 in
  let* negate = bool in
  let n = if base = min_int then base + k else base - k in
  return (if negate && n <> min_int then -n else n)

(* Coefficients and right-hand sides are sometimes near 2^31 or near
   max_int, so that some solves overflow. *)
let prop_simplex_overflows_like_reference =
  let coeff = QCheck.Gen.(frequency [ (3, int_range (-5) 5); (1, gen_edge_int) ]) in
  QCheck.Test.make ~count:1000
    ~name:"sparse simplex overflows like the map-based tableau"
    (QCheck.make (gen_sized_system ~max_vars:4 ~max_cons:6 ~coeff ~rhs:coeff))
    same_as_reference

(* 8 to 24 variables and up to 48 constraints of about four terms each,
   nearer the 54 variables a T1 tableau averages at a pivot: pivots
   substitute into many rows, so the column index gains and loses
   entries.  About two systems in three pivot, one in eight pivots 20
   times or more, and a few overflow. *)
let prop_simplex_matches_reference_large =
  QCheck.Test.make ~count:100 ~long_factor:10
    ~name:"simplex on 24 variables pivots and answers like the map-based tableau"
    (QCheck.make
       QCheck.Gen.(
         let* nvars = int_range 8 24 in
         let+ cs =
           gen_system ~nvars ~max_cons:48
             ~coeff:(frequency [ (nvars - 4, return 0); (4, int_range (-3) 3) ])
             ~rhs:(int_range (-4) 12)
         in
         (nvars, cs)))
    same_as_reference

(* -- Lia.normalize against the version that always scaled (test/lia_reference.ml) *)

(* [n / d], or [n] where building the fraction overflows. *)
let rat n d = try Rat.make n d with Rat.Overflow -> Rat.of_int n

(* Denominators where the lcm and the products overflow. *)
let gen_edge_den =
  QCheck.Gen.oneofl [ 1 lsl 31; (1 lsl 31) + 1; (1 lsl 31) - 1; max_int; max_int - 1 ]

let gen_norm_rat =
  let open QCheck.Gen in
  frequency
    [
      (4, map Rat.of_int (int_range (-6) 6));
      (3, map2 rat (int_range (-6) 6) (int_range 2 6));
      (1, map Rat.of_int gen_edge_int);
      (1, map2 rat gen_edge_int (int_range 2 6));
      (1, map2 rat (int_range (-6) 6) gen_edge_den);
    ]

(* Up to four variables (none: a constant-only constraint), a constant
   term that is often zero, and fractional or huge coefficients. *)
let gen_norm_cons =
  let open QCheck.Gen in
  let* nvars = int_range 0 4 in
  let* coeffs = list_repeat nvars gen_norm_rat in
  let* konst = frequency [ (2, return Rat.zero); (1, gen_norm_rat) ] in
  let* rhs = gen_norm_rat in
  let+ op = oneofl [ Lia.Le; Lia.Lt; Lia.Eq ] in
  let exp =
    snd
      (List.fold_left
         (fun (v, e) c -> (v + 1, Linexp.add_term v c e))
         (0, Linexp.const konst) coeffs)
  in
  { Lia.exp; op; rhs }

let print_lia_cons (c : Lia.cons) =
  Fmt.str "%a %s %a"
    (Linexp.pp (fun ppf v -> Fmt.pf ppf "x%d" v))
    c.Lia.exp
    (match c.Lia.op with Lia.Le -> "<=" | Lia.Lt -> "<" | Lia.Eq -> "=")
    Rat.pp c.Lia.rhs

let normalize_outcome normalize c =
  let rat r = (Rat.num r, Rat.den r) in
  match normalize c with
  | None -> `Unsat
  | Some None -> `Holds
  | Some (Some (c : Lia.cons)) ->
      `Cons
        ( Linexp.fold (fun v r acc -> (v, rat r) :: acc) c.Lia.exp [],
          rat (Linexp.constant c.Lia.exp),
          c.Lia.op,
          rat c.Lia.rhs )
  | exception Rat.Overflow -> `Overflow

let prop_normalize_matches_reference =
  QCheck.Test.make ~count:2000 ~long_factor:10
    ~name:"Lia.normalize answers and overflows like the version that always scaled"
    (QCheck.make ~print:print_lia_cons gen_norm_cons)
    (fun c ->
      normalize_outcome Lia.normalize c = normalize_outcome Lia_reference.normalize c)

(* The general formulas, with the division-based overflow check on
   every product, that the fast paths must agree with. *)
module General = struct
  let mul_int a b =
    if a = 0 || b = 0 then 0
    else
      let p = a * b in
      if p / a <> b then raise Rat.Overflow;
      p

  let add a b =
    Rat.make
      (Rat.add_int (mul_int (Rat.num a) (Rat.den b)) (mul_int (Rat.num b) (Rat.den a)))
      (mul_int (Rat.den a) (Rat.den b))

  let sub a b = add a (Rat.neg b)
  let mul a b = Rat.make (mul_int (Rat.num a) (Rat.num b)) (mul_int (Rat.den a) (Rat.den b))

  let compare a b =
    Stdlib.compare (mul_int (Rat.num a) (Rat.den b)) (mul_int (Rat.num b) (Rat.den a))
end

let prop_rat_integer_fast_paths =
  QCheck.Test.make ~count:2000 ~long_factor:10
    ~name:"Rat integer fast paths agree with the general formula"
    QCheck.(pair (make gen_edge_int) (make gen_edge_int))
    (fun (m, n) ->
      let a = Rat.of_int m and b = Rat.of_int n in
      let agree fast general = outcome fast = outcome general in
      agree (fun () -> Rat.add a b) (fun () -> General.add a b)
      && agree (fun () -> Rat.sub a b) (fun () -> General.sub a b)
      && agree (fun () -> Rat.mul a b) (fun () -> General.mul a b)
      && agree (fun () -> Rat.compare a b) (fun () -> General.compare a b))

(* Found by a wider search than the properties run: the map-based
   tableau found its pivot column, then overflowed deciding the
   eligibility of a later entry.  A scan that stopped at the first
   eligible entry would pivot once more before overflowing. *)
let test_simplex_overflow_in_eligibility_scan () =
  let exp a b =
    Linexp.add_term 0 (Rat.of_int a) (Linexp.add_term 1 (Rat.of_int b) Linexp.zero)
  in
  let system =
    (2, [ le (exp (-3) 4) (Rat.make (min_int + 2) 3); le (exp 3 (1 lsl 31)) Rat.one ])
  in
  let fast, _, pivots, _ = both_simplexes system in
  check_bool "overflows" true (fast = `Overflow);
  Alcotest.(check int) "after one pivot" 1 pivots;
  check_bool "like the map-based tableau" true (same_as_reference system)

let qcheck_differential =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_simplex_agrees_with_fm;
      prop_simplex_models_check_out;
      prop_lia_refines_rational;
      prop_simplex_matches_reference;
      prop_simplex_overflows_like_reference;
      prop_rat_integer_fast_paths;
    ]
  @ [
      Alcotest.test_case "simplex: overflow while scanning for the pivot column"
        `Quick test_simplex_overflow_in_eligibility_scan;
    ]

let tests = tests @ qcheck_differential

(* ------------------------------------------------------------------ *)
(* Relevance: the union–find index against the per-query breadth-first *)
(* closure it replaced (test/relevance_reference.ml).                  *)
(* ------------------------------------------------------------------ *)

let rel_pool =
  List.map (fun n -> Term.var n Sort.Int) [ "r0"; "r1"; "r2"; "r3"; "r4"; "r5" ]

(* Variables that no hypothesis mentions: only goals and kept facts. *)
let goal_pool = [ Term.var "g0" Sort.Int; Term.var "g1" Sort.Int ]

(* Verbatim atoms, so constant operands do not fold away. *)
let gen_rel_atom vars =
  let open QCheck.Gen in
  let term =
    frequency [ (4, oneofl vars); (1, map Term.int (int_range (-2) 2)) ]
  in
  map3
    (fun a rel b -> Pred.make (Pred.Atom (a, rel, b)))
    term
    (oneofl Pred.[ Eq; Ne; Lt; Le ])
    term

let gen_rel_hyp =
  let open QCheck.Gen in
  let atom = gen_rel_atom rel_pool in
  frequency
    [
      (8, atom);
      (* ground *)
      ( 1,
        map
          (fun k -> Pred.make (Pred.Atom (Term.int k, Pred.Lt, Term.int 2)))
          (int_range 0 4) );
      (1, return Pred.ff);
      (1, map2 (fun a b -> Pred.conj [ a; b ]) atom atom);
      (1, map Pred.bvar (oneofl [ "b0"; "b1" ]));
    ]

let gen_rel_kept =
  let open QCheck.Gen in
  list_size (int_range 0 2)
    (frequency
       [
         (* may link hypotheses that share no variable *)
         (6, gen_rel_atom (rel_pool @ goal_pool));
         (1, return Pred.ff);
         (1, return Pred.tt);
       ])

let gen_rel_goal =
  let open QCheck.Gen in
  let atom = gen_rel_atom rel_pool in
  frequency
    [
      (4, atom);
      (2, gen_rel_atom goal_pool);
      (1, return Pred.ff);
      (1, return Pred.tt);
      (1, map2 (fun a b -> Pred.conj [ a; b ]) atom atom);
      (1, map (fun a -> Pred.make (Pred.And [ a; Pred.ff ])) atom);
    ]

let print_preds ps = "[" ^ String.concat "; " (List.map Pred.to_string ps) ^ "]"

let prop_relevance_matches_reference =
  QCheck.Test.make ~count:1000 ~long_factor:10
    ~name:"relevance: the index retains what the closure did"
    (QCheck.make
       ~print:(fun (hyps, kept, goals) ->
         Printf.sprintf "hyps %s\nkept %s\ngoals %s" (print_preds hyps)
           (print_preds kept) (print_preds goals))
       QCheck.Gen.(
         triple
           (list_size (int_range 0 10) gen_rel_hyp)
           gen_rel_kept
           (list_size (int_range 1 4) gen_rel_goal)))
    (fun (hyps, kept, goals) ->
      let idx = Solver.index ~kept hyps in
      List.for_all
        (fun goal ->
          let query, retained = Relevance_reference.prepare ~kept hyps goal in
          let p = Solver.prepare idx goal in
          Solver.relevant idx goal = retained
          && p.Solver.pruned_idx = retained
          && p.Solver.query == query)
        goals)

(* ------------------------------------------------------------------ *)
(* Conflict cores: bisection against the deletion filter it replaced   *)
(* (test/core_reference.ml).                                           *)
(* ------------------------------------------------------------------ *)

(* A monotone oracle: a list is unsat when it holds every member of
   some conflict set. *)
let family_unsat family items =
  List.exists
    (fun conflict -> List.for_all (fun c -> List.mem c items) conflict)
    family

let ceil_log2 n =
  let rec go k p = if p >= n then k else go (k + 1) (2 * p) in
  go 0 1

(* Items [0 .. n-1] in random order, and up to four non-empty conflict
   sets over them, so the whole list is unsat. *)
let gen_core_case =
  let open QCheck.Gen in
  let* n = int_range 1 48 in
  let* items = shuffle_l (List.init n Fun.id) in
  let* nsets = int_range 1 4 in
  let* family =
    list_repeat nsets
      (let* k = int_range 1 (min 5 n) in
       list_repeat k (int_range 0 (n - 1)))
  in
  return (items, family)

let prop_core_matches_filter =
  QCheck.Test.make ~count:2000 ~long_factor:10
    ~name:"dpll: bisection finds the deletion filter's core"
    (QCheck.make
       ~print:(fun (items, family) ->
         Printf.sprintf "items [%s], conflicts [%s]"
           (String.concat "; " (List.map string_of_int items))
           (String.concat "; "
              (List.map
                 (fun c -> String.concat "," (List.map string_of_int c))
                 family)))
       gen_core_case)
    (fun (items, family) ->
      let calls = ref 0 in
      let unsat l =
        incr calls;
        family_unsat family l
      in
      let core = Dpll.shrink_core ~unsat items in
      let bound =
        (List.length core + 1) * ceil_log2 (List.length items + 1)
      in
      core = Core_reference.shrink_core ~unsat:(family_unsat family) items
      && !calls <= bound)

let theory_unsat lits =
  match Theory.check_sat lits with Theory.Unsat _ -> true | _ -> false

(* Random signed atoms over [x], [y], [z]; half the lists also hold the
   complement of their first literal somewhere. *)
let gen_theory_lits =
  let open QCheck.Gen in
  let atom =
    map3
      (fun a rel b -> Pred.atom a rel b)
      (gen_term [ x; y; z ])
      (oneofl Pred.[ Eq; Ne; Lt; Le; Gt; Ge ])
      (gen_term [ x; y; z ])
  in
  let* lits = list_size (int_range 2 14) (pair atom bool) in
  let* clash = bool in
  let* at = int_range 0 (List.length lits) in
  match lits with
  | (a, pol) :: _ when clash ->
      return (Liquid_common.Listx.take at lits @ [ (a, not pol) ] @ Liquid_common.Listx.drop at lits)
  | _ -> return lits

let print_lits lits =
  String.concat " /\\ "
    (List.map (fun (a, pol) -> (if pol then "" else "~") ^ Pred.to_string a) lits)

(* The LIA budget makes the theory non-monotone, and its answers depend
   on the order of the literals: a list can answer [Unknown] where a
   sublist, or the same literals in another order, answer [Unsat].  The
   two searches then probe different lists.  When no probe answered
   [Unknown], every answer is exact, so the oracle is monotone on what
   was probed and the bisection must find the filter's core.
   Otherwise its core must be drawn from the input and, as a set, equal
   a list some probe answered [Unsat]: the bisection keeps that as an
   invariant of its search, and it makes the core truly unsat whatever
   the theory answers for the core in its own order. *)
let prop_core_matches_filter_on_theory =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"dpll: bisection finds the filter's core under the theory"
    (QCheck.make ~print:print_lits gen_theory_lits)
    (fun lits ->
      let set ls =
        List.sort_uniq compare (List.map (fun (a, pol) -> (Pred.tag a, pol)) ls)
      in
      let unknown = ref false and unsat_sets = ref [] in
      let unsat ls =
        match Theory.check_sat ls with
        | Theory.Unsat _ ->
            unsat_sets := set ls :: !unsat_sets;
            true
        | Theory.Unknown ->
            unknown := true;
            false
        | Theory.Sat _ -> false
      in
      QCheck.assume (unsat lits);
      let core = Dpll.shrink_core ~unsat lits in
      let reference = Core_reference.shrink_core ~unsat lits in
      if !unknown then
        List.for_all (fun l -> List.mem l lits) core
        && List.mem (set core) !unsat_sets
      else core = reference)

(* DPLL lists the model's literals newest variable first, so the
   negated goal's atoms, interned first, come last: a core usually ends
   at the list's tail.  The filter pays one call per literal. *)
let test_core_bisection_calls () =
  let conflict = [ 3; 17; 39 ] in
  let calls = ref 0 in
  let unsat l =
    incr calls;
    family_unsat [ conflict ] l
  in
  let items = List.init 40 Fun.id in
  let core = Dpll.shrink_core ~unsat items in
  let bisection = !calls in
  calls := 0;
  let filtered = Core_reference.shrink_core ~unsat items in
  Alcotest.(check (list int)) "the filter's core" filtered core;
  Alcotest.(check (list int)) "newest kept first" [ 39; 17; 3 ] core;
  check_int "the filter makes one call per literal" 40 !calls;
  check_bool
    (Printf.sprintf "bisection makes at most 20 calls (made %d)" bisection)
    true (bisection <= 20)

(* ------------------------------------------------------------------ *)
(* Explanations: the simplex's against Fourier-Motzkin, the theory's    *)
(* against the theory, and the models of Invalid answers against their *)
(* queries.                                                            *)
(* ------------------------------------------------------------------ *)

(* The elements of [l] at the increasing positions [is]. *)
let at_positions is l = List.filteri (fun k _ -> List.mem k is) l

(* A [gen_system] on three variables, widened with constraints over a
   form an earlier one uses, repeated, negated or scaled, each with its
   own relation and right-hand side, and with one-variable constraints
   whose coefficient is not 1: the cases where constraints share a
   tableau row, or divide into a bound. *)
let gen_shared_system =
  let open QCheck.Gen in
  let rhs = int_range (-6) 6 and op = oneofl [ Simplex.Le; Simplex.Ge; Simplex.Eq ] in
  let* cs = gen_system ~nvars:3 ~max_cons:6 ~coeff:(int_range (-3) 3) ~rhs in
  let shared =
    let* (c : Simplex.cons) = oneofl cs in
    let* k = oneofl [ 1; -1; 2; -2; 3 ] in
    let* op = op in
    let+ rhs = rhs in
    Simplex.cons (Linexp.scale (Rat.of_int k) c.Simplex.exp) op (Rat.of_int rhs)
  in
  let single =
    let* v = int_range 0 2 in
    let* k = oneofl [ -3; -2; -1; 2; 3 ] in
    let* op = op in
    let+ rhs = rhs in
    Simplex.cons (Linexp.var ~coeff:(Rat.of_int k) v) op (Rat.of_int rhs)
  in
  let* extra = list_size (int_range 1 5) (frequency [ (3, shared); (2, single) ]) in
  shuffle_l (cs @ extra)

let print_simplex_system cs =
  String.concat "; "
    (List.map
       (fun (c : Simplex.cons) ->
         Fmt.str "%a %s %a"
           (Linexp.pp (fun ppf v -> Fmt.pf ppf "x%d" v))
           c.Simplex.exp
           (match c.Simplex.op with Simplex.Le -> "<=" | Simplex.Ge -> ">=" | Simplex.Eq -> "=")
           Rat.pp c.Simplex.rhs)
       cs)

let prop_simplex_explains =
  QCheck.Test.make ~count:1000 ~long_factor:10
    ~name:"simplex on shared and one-variable forms agrees with Fourier-Motzkin and explains"
    (QCheck.make ~print:print_simplex_system gen_shared_system)
    (fun cs ->
      match Simplex.solve ~nvars:3 cs with
      | `Sat model ->
          Fm.solve cs = `Sat
          && List.for_all
               (fun (c : Simplex.cons) ->
                 let v = Linexp.eval (fun i -> model.(i)) c.Simplex.exp in
                 match c.Simplex.op with
                 | Simplex.Le -> Rat.le v c.Simplex.rhs
                 | Simplex.Ge -> Rat.le c.Simplex.rhs v
                 | Simplex.Eq -> Rat.equal v c.Simplex.rhs)
               cs
      | `Unsat ks ->
          Fm.solve cs = `Unsat
          && ks <> []
          && List.for_all (fun k -> k >= 0 && k < List.length cs) ks
          && Fm.solve (at_positions ks cs) = `Unsat)

let prop_theory_explains =
  QCheck.Test.make ~count:1000 ~long_factor:10
    ~name:"theory: the literals an Unsat names are unsat on their own"
    (QCheck.make ~print:print_lits gen_theory_lits)
    (fun lits ->
      match Theory.check_sat lits with
      | Theory.Unsat (Some is) ->
          is <> []
          && List.for_all (fun k -> k >= 0 && k < List.length lits) is
          && theory_unsat (at_positions is lits)
      | Theory.Unsat None | Theory.Sat _ | Theory.Unknown -> true)

let uf = Symbol.declare "uf" { Sort.args = [ Sort.Int ]; result = Sort.Int }
let flag = Pred.bvar (Liquid_common.Ident.of_string "flag")

(* [p] under a raw model, whose labels are entities' original names and
   applications' renderings: [None] where it reaches an entity the model
   does not value. *)
let eval_raw (raw : (string * Solver.cex_value) list) p =
  let exception Unvalued in
  let int_of label =
    match List.assoc_opt label raw with Some (Solver.Vint n) -> n | _ -> raise Unvalued
  in
  let rec term t =
    match Term.view t with
    | Term.Int n -> n
    | Term.Var (x, _) -> int_of (Liquid_common.Ident.to_string x)
    | Term.App _ -> int_of (Term.to_string t)
    | Term.Neg a -> -term a
    | Term.Add (a, b) -> term a + term b
    | Term.Sub (a, b) -> term a - term b
    | Term.Mul (a, b) -> term a * term b
  in
  let rec pred p =
    match Pred.view p with
    | Pred.True -> true
    | Pred.False -> false
    | Pred.Atom (a, r, b) -> (
        let a = term a and b = term b in
        match r with
        | Pred.Eq -> a = b
        | Pred.Ne -> a <> b
        | Pred.Lt -> a < b
        | Pred.Le -> a <= b
        | Pred.Gt -> a > b
        | Pred.Ge -> a >= b)
    | Pred.Bvar x -> (
        match List.assoc_opt (Liquid_common.Ident.to_string x) raw with
        | Some (Solver.Vbool b) -> b
        | _ -> raise Unvalued)
    | Pred.Not p -> not (pred p)
    | Pred.And ps -> List.for_all pred ps
    | Pred.Or ps -> List.exists pred ps
    | Pred.Imp (a, b) -> (not (pred a)) || pred b
    | Pred.Iff (a, b) -> pred a = pred b
  in
  match pred p with b -> Some b | exception Unvalued -> None

(* Hypotheses and a goal over [x], [y], [z], applications of [uf] and a
   boolean. *)
let gen_query =
  let open QCheck.Gen in
  let vars = [ x; y; z; Term.app uf [ x ]; Term.app uf [ y ] ] in
  let fact =
    frequency [ (6, gen_pred vars); (1, return flag); (1, return (Pred.not_ flag)) ]
  in
  pair (list_size (int_range 0 4) fact) fact

let prop_invalid_models_satisfy_queries =
  QCheck.Test.make ~count:1000 ~long_factor:10
    ~name:"solver: an Invalid model never falsifies its query"
    (QCheck.make
       ~print:(fun (hyps, goal) ->
         String.concat ", " (List.map Pred.to_string hyps) ^ " => " ^ Pred.to_string goal)
       gen_query)
    (fun (hyps, goal) ->
      let q = Solver.prepare (Solver.index hyps) goal in
      match Solver.check_query q with
      | Solver.Invalid cex -> eval_raw cex.Solver.raw q.Solver.query <> Some false
      | Solver.Valid | Solver.Unknown -> true)

let tests =
  tests
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_relevance_matches_reference;
        prop_core_matches_filter;
        prop_core_matches_filter_on_theory;
      ]
  @ [
      Alcotest.test_case "dpll: a 3-literal core of 40 in at most 20 calls"
        `Quick test_core_bisection_calls;
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_simplex_matches_reference_large; prop_normalize_matches_reference ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_simplex_explains; prop_theory_explains; prop_invalid_models_satisfy_queries ]
