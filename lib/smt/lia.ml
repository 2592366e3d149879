(** Linear integer arithmetic on top of the rational simplex.

    Decides conjunctions of linear constraints over {e integer} variables:

    - strict inequalities are tightened ([e < c] becomes [e <= c-1] once
      coefficients are scaled to integers), which alone decides almost all
      liquid-type queries;
    - equalities get the GCD divisibility test;
    - any remaining fractional model values are handled by bounded
      branch-and-bound; exhausting the node budget yields [`Unknown],
      which callers must treat as "possibly satisfiable" (sound for a
      validity checker).

    Normalization feeds one constraint at a time into a {!Simplex}
    tableau, which callers may keep and extend.  Branch and bound starts
    from such a tableau: the root is its repair, and each branch adds its
    bound to a copy of its parent's repaired tableau, the branch toward
    zero first.

    An [Unsat] answer explains itself by the sources of constraints that
    are infeasible together: the one constraint that normalization
    refutes, the simplex's explanation of an infeasible relaxation, or,
    for a node that branched, the union of its two branches'
    explanations less the branch bounds. *)

type op = Le | Lt | Eq

type cons = { exp : Linexp.t; op : op; rhs : Rat.t }

type result = Sat of Rat.t array | Unsat of int list | Unknown

let budget = 400 (* branch-and-bound nodes per check *)

let nnodes_total = ref 0

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let lcm a b = Rat.mul_int (a / gcd a b) b

(** Scale a constraint so that all variable coefficients are integers,
    divide through by their GCD, and tighten.  Returns [None] if the
    constraint is detected unsatisfiable outright (GCD test).  The
    constant fold is skipped when the constant is 0, and a scaling when
    its factor is 1: either would give equal values and cannot overflow.
    On liquid queries both factors are almost always 1. *)
let normalize { exp; op; rhs } : cons option option =
  (* Fold the constant term into the right-hand side. *)
  let rhs, exp =
    let c = Linexp.constant exp in
    if Rat.is_zero c then (rhs, exp)
    else (Rat.sub rhs c, Linexp.sub exp (Linexp.const c))
  in
  let m = Linexp.fold (fun _ c acc -> lcm acc (Rat.den c)) exp (Rat.den rhs) in
  let exp, rhs =
    if m = 1 then (exp, rhs)
    else (Linexp.scale (Rat.of_int m) exp, Rat.mul (Rat.of_int m) rhs)
  in
  (* Now all coefficients are integers; rhs may still be fractional only if
     m missed its denominator, which lcm prevents. *)
  let g = Linexp.fold (fun _ c acc -> gcd acc (Rat.num c)) exp 0 in
  if g = 0 then
    (* No variables: decide now. *)
    let sat =
      match op with
      | Le -> Rat.le Rat.zero rhs
      | Lt -> Rat.lt Rat.zero rhs
      | Eq -> Rat.is_zero rhs
    in
    if sat then Some None else None
  else
    let exp, rhs =
      if g = 1 then (exp, rhs)
      else (Linexp.scale (Rat.make 1 g) exp, Rat.div rhs (Rat.of_int g))
    in
    match op with
    | Eq ->
        if Rat.is_integer rhs then Some (Some { exp; op = Eq; rhs })
        else None (* GCD test: g*e' = rhs with rhs not divisible by g *)
    | Le | Lt ->
        (* e' <= rhs (or <) with integer coefficients and integer-valued e':
           tighten the bound to an integer. *)
        let bound =
          match (op, Rat.is_integer rhs) with
          | Lt, true -> Rat.sub rhs Rat.one
          | Lt, false | Le, false -> Rat.of_int (Rat.floor rhs)
          | Le, true -> rhs
          | Eq, _ -> assert false
        in
        Some (Some { exp; op = Le; rhs = bound })

let to_simplex { exp; op; rhs } =
  match op with
  | Le -> Simplex.cons exp Simplex.Le rhs
  | Eq -> Simplex.cons exp Simplex.Eq rhs
  | Lt -> (* eliminated by [normalize] *) Simplex.cons exp Simplex.Le rhs

(** Normalize [c] and add it to tableau [t] with source [k]; a
    constraint normalization refutes makes [t] infeasible with
    explanation [[k]]. *)
let add t k c =
  match normalize c with
  | None -> Simplex.refute t [ k ]
  | Some None -> ()
  | Some (Some c) -> Simplex.add t k (to_simplex c)

(* The source of a branch bound.  A node's explanation leaves every
   branch bound out: the bounds of its own branches cover the integers,
   and those above it are left out again by its ancestors. *)
let branched = min_int

(** The first problem variable below [nvars] whose value is
    fractional. *)
let fractional t nvars =
  let rec go i =
    if i >= nvars then None
    else
      let x = Simplex.value t i in
      if Rat.is_integer x then go (i + 1) else Some (i, x)
  in
  go 0

let search ~nvars t : result =
  let nodes = ref 0 in
  let rec bb t =
    incr nodes;
    incr nnodes_total;
    if !nodes > budget then Unknown
    else
      match Simplex.check t with
      | `Unsat ks -> Unsat (List.filter (fun k -> k <> branched) ks)
      | `Sat -> (
          match fractional t nvars with
          | None -> Sat (Array.init nvars (Simplex.value t))
          | Some (v, x) -> (
              let branch op bound =
                let t = Simplex.copy t in
                Simplex.add t branched (Simplex.cons (Linexp.var v) op (Rat.of_int bound));
                bb t
              in
              (* The branch toward zero first: a branch inherits its
                 parent's values, and away from zero a feasible branch
                 can lead to another, the values drifting further at
                 every node. *)
              let lo () = branch Simplex.Le (Rat.floor x)
              and hi () = branch Simplex.Ge (Rat.ceil x) in
              let first, second = if Rat.sign x > 0 then (lo, hi) else (hi, lo) in
              match first () with
              | Sat m -> Sat m
              | Unknown -> ( match second () with Sat m -> Sat m | _ -> Unknown)
              | Unsat e -> (
                  match second () with
                  | Unsat e' -> Unsat (List.sort_uniq Int.compare (e @ e'))
                  | r -> r)))
  in
  try bb t with Rat.Overflow -> Unknown

let check ~nvars (cs : cons list) : result =
  let t = Simplex.create () in
  try
    Simplex.ensure t nvars;
    List.iteri (add t) cs;
    search ~nvars t
  with Rat.Overflow -> Unknown
