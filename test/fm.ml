(** Fourier–Motzkin elimination over the rationals.

    A second, independent decision procedure for conjunctions of linear
    constraints, used to cross-check {!Simplex} in the test suite
    (differential testing of a from-scratch solver) and as a reference
    implementation.  Exponential in the worst case — fine for the small
    systems the tests generate; the production path stays on simplex.

    Equalities are split into two inequalities; each variable is then
    eliminated by combining every lower bound with every upper bound.
    What remains are variable-free constraints, checked directly. *)

open Liquid_smt

type cons = { exp : Linexp.t; op : [ `Le | `Lt ]; rhs : Rat.t }

let of_simplex (c : Simplex.cons) : cons list =
  match c.Simplex.op with
  | Simplex.Le -> [ { exp = c.Simplex.exp; op = `Le; rhs = c.Simplex.rhs } ]
  | Simplex.Ge ->
      [ { exp = Linexp.neg c.Simplex.exp; op = `Le; rhs = Rat.neg c.Simplex.rhs } ]
  | Simplex.Eq ->
      [
        { exp = c.Simplex.exp; op = `Le; rhs = c.Simplex.rhs };
        { exp = Linexp.neg c.Simplex.exp; op = `Le; rhs = Rat.neg c.Simplex.rhs };
      ]

(** All variables mentioned by the system. *)
let variables (cs : cons list) : int list =
  Liquid_common.Listx.dedup_ordered ~compare:Int.compare
    (List.concat_map (fun c -> Linexp.vars c.exp) cs)

(** Eliminate variable [v]: for every pair (lower bound, upper bound) on
    [v], combine; keep constraints not mentioning [v]. *)
let eliminate (v : int) (cs : cons list) : cons list =
  let lowers = ref [] and uppers = ref [] and rest = ref [] in
  List.iter
    (fun c ->
      let coeff = Linexp.coeff v c.exp in
      if Rat.is_zero coeff then rest := c :: !rest
      else begin
        (* normalize: v <= e (upper) or v >= e (lower) *)
        let _, remainder = Linexp.remove v c.exp in
        let inv = Rat.inv coeff in
        (* coeff*v + remainder <= rhs *)
        let bound_exp = Linexp.scale (Rat.neg inv) remainder in
        let bound_rhs = Rat.mul inv c.rhs in
        (* v <= bound_exp + bound_rhs  if coeff > 0, else v >= ... *)
        let entry = (Linexp.add_const bound_rhs bound_exp, c.op) in
        if Rat.sign coeff > 0 then uppers := entry :: !uppers
        else lowers := entry :: !lowers
      end)
    cs;
  let combined =
    List.concat_map
      (fun (lo, lop) ->
        List.map
          (fun (up, uop) ->
            (* lo <= v <= up  ==>  lo - up <= 0 *)
            let op = if lop = `Lt || uop = `Lt then `Lt else `Le in
            { exp = Linexp.sub lo up; op; rhs = Rat.zero })
          !uppers)
      !lowers
  in
  combined @ !rest

(** Rational satisfiability by elimination. *)
let sat (cs : cons list) : bool =
  let rec go cs =
    match variables cs with
    | [] ->
        List.for_all
          (fun c ->
            let k = Linexp.constant c.exp in
            match c.op with
            | `Le -> Rat.le k c.rhs
            | `Lt -> Rat.lt k c.rhs)
          cs
    | v :: _ -> go (eliminate v cs)
  in
  go cs

(** Decide a {!Simplex}-style system over the rationals. *)
let solve (cs : Simplex.cons list) : [ `Sat | `Unsat ] =
  if sat (List.concat_map of_simplex cs) then `Sat else `Unsat
