(* The greedy deletion filter that lib/smt/dpll.ml's bisection
   replaced, kept as the reference its tests hold [Dpll.shrink_core]
   to: walk the list once, dropping each literal whose removal leaves
   the kept literals (newest first) plus the rest still unsat — one
   oracle call per literal.  Returns the core newest kept first. *)

let shrink_core ~(unsat : 'a list -> bool) (lits : 'a list) : 'a list =
  let rec shrink kept pending =
    match pending with
    | [] -> kept
    | l :: rest ->
        if unsat (kept @ rest) then shrink kept rest
        else shrink (l :: kept) rest
  in
  shrink [] lits
