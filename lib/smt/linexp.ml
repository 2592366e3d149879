(** Linear expressions over solver variables.

    A linear expression is a finite map from variable indices to non-zero
    rational coefficients, plus a constant.  Solver variables are small
    integers: the entities that {!Theory}'s purification allocates. *)

module IMap = Map.Make (Int)

type t = { coeffs : Rat.t IMap.t; const : Rat.t }

let zero = { coeffs = IMap.empty; const = Rat.zero }

let const c = { coeffs = IMap.empty; const = c }

let var ?(coeff = Rat.one) v =
  if Rat.is_zero coeff then zero
  else { coeffs = IMap.singleton v coeff; const = Rat.zero }

let is_const t = IMap.is_empty t.coeffs

let constant t = t.const

let coeff v t =
  match IMap.find_opt v t.coeffs with Some c -> c | None -> Rat.zero

let add a b =
  let coeffs =
    IMap.union
      (fun _ c1 c2 ->
        let c = Rat.add c1 c2 in
        if Rat.is_zero c then None else Some c)
      a.coeffs b.coeffs
  in
  { coeffs; const = Rat.add a.const b.const }

let scale k t =
  if Rat.is_zero k then zero
  else
    {
      coeffs = IMap.map (fun c -> Rat.mul k c) t.coeffs;
      const = Rat.mul k t.const;
    }

let neg t = scale Rat.minus_one t

let sub a b = add a (neg b)

let add_term v c t =
  add t (var ~coeff:c v)

let add_const c t = { t with const = Rat.add t.const c }

(** Remove variable [v], returning its coefficient and the remainder. *)
let remove v t =
  match IMap.find_opt v t.coeffs with
  | None -> (Rat.zero, t)
  | Some c -> (c, { t with coeffs = IMap.remove v t.coeffs })

let fold f t acc = IMap.fold f t.coeffs acc

let cardinal t = IMap.cardinal t.coeffs

let iter f t = IMap.iter f t.coeffs

let vars t = IMap.fold (fun v _ acc -> v :: acc) t.coeffs []

let choose_var t =
  match IMap.min_binding_opt t.coeffs with
  | Some (v, c) -> Some (v, c)
  | None -> None

(** Evaluate under a total assignment. *)
let eval (value : int -> Rat.t) t =
  IMap.fold (fun v c acc -> Rat.add acc (Rat.mul c (value v))) t.coeffs t.const

let compare a b =
  let c = Rat.compare a.const b.const in
  if c <> 0 then c else IMap.compare Rat.compare a.coeffs b.coeffs

let equal a b = Rat.equal a.const b.const && IMap.equal Rat.equal a.coeffs b.coeffs

let hash t =
  let mix h k = ((h * 31) + k) land max_int in
  IMap.fold
    (fun v c h -> mix (mix (mix h v) (Rat.num c)) (Rat.den c))
    t.coeffs
    (mix (Rat.num t.const) (Rat.den t.const))

let pp pp_var ppf t =
  let first = ref true in
  IMap.iter
    (fun v c ->
      if !first then (
        first := false;
        Fmt.pf ppf "%a*%a" Rat.pp c pp_var v)
      else Fmt.pf ppf " + %a*%a" Rat.pp c pp_var v)
    t.coeffs;
  if (not (Rat.is_zero t.const)) || !first then
    if !first then Rat.pp ppf t.const else Fmt.pf ppf " + %a" Rat.pp t.const
