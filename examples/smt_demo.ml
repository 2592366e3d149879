(** Using the SMT substrate directly.

    Run with: [dune exec examples/smt_demo.exe]

    The refinement logic is QF-EUFLIA: linear integer arithmetic plus
    uninterpreted functions.  This demo poses the kind of validity
    queries liquid inference generates — including the exact shape of an
    array-bounds obligation — against the built-in decision procedure
    (the container has no Z3; see DESIGN.md). *)

open Liquid_logic
open Liquid_smt
let tlen t = Term.app Symbol.len [ t ]

let x = Term.var "x" Sort.Int
let y = Term.var "y" Sort.Int
let i = Term.var "i" Sort.Int
let a = Term.var "a" Sort.Obj
let b = Term.var "b" Sort.Obj
let n k = Term.int k

let show hyps goal =
  let verdict =
    match Solver.check_valid hyps goal with
    | Solver.Valid -> "valid"
    | Solver.Invalid _ -> "invalid"
    | Solver.Unknown -> "unknown"
  in
  Fmt.pr "  %a@.    |- %a   [%s]@.@."
    Fmt.(list ~sep:(any " /\\ ") Pred.pp)
    hyps Pred.pp goal verdict

let () =
  Fmt.pr "=== linear integer arithmetic ===@.";
  show [ Pred.le x y; Pred.le y (Term.sub i (n 1)) ] (Pred.lt x i);
  show [ Pred.lt x y ] (Pred.le (Term.add x (n 1)) y);
  (* integrality: x cannot be strictly between two consecutive ints *)
  show [ Pred.lt (n 0) x; Pred.lt x (n 2) ] (Pred.eq x (n 1));
  (* ... and a rationally-valid but integrally-invalid claim is rejected *)
  show [ Pred.le (n 0) x ] (Pred.ge x (n 1));

  Fmt.pr "=== uninterpreted functions (congruence) ===@.";
  show [ Pred.eq a b ] (Pred.eq (tlen a) (tlen b));
  show
    [ Pred.eq (tlen a) (n 8); Pred.lt i (tlen a); Pred.le (n 0) i ]
    (Pred.lt i (n 8));

  Fmt.pr "=== the array-bounds obligation shape ===@.";
  (* i in bounds, i+1 still below len a: the inductive step of a loop *)
  show
    [
      Pred.le (n 0) i;
      Pred.lt i (tlen a);
      Pred.lt (Term.add i (n 1)) (tlen a);
    ]
    (Pred.conj
       [
         Pred.le (n 0) (Term.add i (n 1));
         Pred.lt (Term.add i (n 1)) (tlen a);
       ]);

  Fmt.pr "=== statistics ===@.";
  Fmt.pr "  %a@." Solver.pp_stats ()
