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

    An [Unsat] answer explains itself when it can, by the positions of
    input constraints that are infeasible together: the one constraint
    that normalization refutes, or the simplex's explanation of an
    infeasible root relaxation.  A conflict found only after branching
    has no explanation. *)

type op = Le | Lt | Eq

type cons = { exp : Linexp.t; op : op; rhs : Rat.t }

type result = Sat of Rat.t array | Unsat of int list option | Unknown

let default_budget = 400

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

(** Find a variable with a fractional value in the model. *)
let fractional model =
  let n = Array.length model in
  let rec go i =
    if i >= n then None
    else if Rat.is_integer model.(i) then go (i + 1)
    else Some (i, model.(i))
  in
  go 0

let check ?(budget = default_budget) ~nvars (cs : cons list) : result =
  let nodes = ref 0 in
  (* Normalize once up front, keeping the position in [cs] of each
     constraint that stays; later branch constraints are already
     integral. *)
  let exception Refuted of int in
  let rec normal k = function
    | [] -> ([], [])
    | c :: rest -> (
        match normalize c with
        | None -> raise (Refuted k)
        | Some None -> normal (k + 1) rest
        | Some (Some c') ->
            let cs, ks = normal (k + 1) rest in
            (c' :: cs, k :: ks))
  in
  try
    let root, ks = normal 0 cs in
    let origin = Array.of_list ks in
    let rec bb (cs : cons list) : result =
      incr nodes;
      incr nnodes_total;
      if !nodes > budget then Unknown
      else
        match Simplex.solve ~nvars (List.map to_simplex cs) with
        | `Unsat ks ->
            Unsat (if cs == root then Some (List.map (fun k -> origin.(k)) ks) else None)
        | `Sat model -> (
            match fractional model with
            | None -> Sat model
            | Some (v, value) -> (
                let lo =
                  { exp = Linexp.var v; op = Le; rhs = Rat.of_int (Rat.floor value) }
                in
                let hi =
                  {
                    exp = Linexp.neg (Linexp.var v);
                    op = Le;
                    rhs = Rat.of_int (-Rat.ceil value);
                  }
                in
                match bb (lo :: cs) with
                | Sat m -> Sat m
                | Unknown -> ( match bb (hi :: cs) with Sat m -> Sat m | _ -> Unknown)
                | Unsat _ -> bb (hi :: cs)))
    in
    bb root
  with
  | Refuted k -> Unsat (Some [ k ])
  | Rat.Overflow -> Unknown
