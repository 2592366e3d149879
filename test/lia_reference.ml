(* [Lia.normalize] as it was before it skipped the constant fold and the
   scalings whose factor is 1, kept verbatim as the reference its
   differential test holds it to: the constant is always folded and the
   constraint is always scaled twice, once by the lcm of its
   denominators and once by the inverse gcd of its numerators. *)

open Liquid_smt

type cons = Lia.cons = { exp : Linexp.t; op : Lia.op; rhs : Rat.t }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let rec lcm_den acc le =
  match le with
  | [] -> acc
  | d :: rest ->
      let g = gcd acc d in
      lcm_den (Rat.mul_int (acc / g) d) rest

let normalize { exp; op; rhs } : cons option option =
  (* Fold the constant term into the right-hand side. *)
  let rhs = Rat.sub rhs (Linexp.constant exp) in
  let exp = Linexp.sub exp (Linexp.const (Linexp.constant exp)) in
  let dens = Linexp.fold (fun _ c acc -> Rat.den c :: acc) exp [ Rat.den rhs ] in
  let m = lcm_den 1 dens in
  let exp = Linexp.scale (Rat.of_int m) exp in
  let rhs = Rat.mul (Rat.of_int m) rhs in
  (* Now all coefficients are integers; rhs may still be fractional only if
     m missed its denominator, which lcm prevents. *)
  let g = Linexp.fold (fun _ c acc -> gcd acc (Rat.num c)) exp 0 in
  if g = 0 then
    (* No variables: decide now. *)
    let sat =
      match op with
      | Lia.Le -> Rat.le Rat.zero rhs
      | Lia.Lt -> Rat.lt Rat.zero rhs
      | Lia.Eq -> Rat.is_zero rhs
    in
    if sat then Some None else None
  else
    let exp = Linexp.scale (Rat.make 1 g) exp in
    let rhs = Rat.div rhs (Rat.of_int g) in
    match op with
    | Lia.Eq ->
        if Rat.is_integer rhs then Some (Some { exp; op = Lia.Eq; rhs })
        else None (* GCD test: g*e' = rhs with rhs not divisible by g *)
    | Lia.Le | Lia.Lt ->
        (* e' <= rhs (or <) with integer coefficients and integer-valued e':
           tighten the bound to an integer. *)
        let bound =
          match (op, Rat.is_integer rhs) with
          | Lia.Lt, true -> Rat.sub rhs Rat.one
          | Lia.Lt, false | Lia.Le, false -> Rat.of_int (Rat.floor rhs)
          | Lia.Le, true -> rhs
          | Lia.Eq, _ -> assert false
        in
        Some (Some { exp; op = Lia.Le; rhs = bound })
