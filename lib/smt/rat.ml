(** Exact rational arithmetic on native integers, with overflow checking.

    The simplex core needs exact rational arithmetic.  The container has no
    arbitrary-precision library, so we use native 63-bit integers and
    {e check every multiplication and addition for overflow}.  On overflow
    we raise {!Overflow}; the solver catches it and returns "unknown",
    which the liquid fixpoint treats as "implication not valid" — sound,
    merely less precise.  The paper's benchmark queries involve small
    coefficients and never come close to overflowing. *)

exception Overflow

(* -- Overflow-checked native integer arithmetic -------------------- *)

let add_int a b =
  let s = a + b in
  (* Overflow iff operands have the same sign and the result's sign differs. *)
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then raise Overflow;
  s

(* Operands of magnitude below 2^31 cannot overflow a 63-bit product,
   so only larger ones pay for the division that detects overflow. *)
let small x = x > -0x8000_0000 && x < 0x8000_0000

let mul_int a b =
  if small a && small b then a * b
  else if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / a <> b then raise Overflow;
    p

let rec gcd_int a b = if b = 0 then abs a else gcd_int b (a mod b)

(* -- Rationals ------------------------------------------------------ *)

(** Invariant: [den > 0] and [gcd num den = 1]. *)
type t = { num : int; den : int }

let zero = { num = 0; den = 1 }
let one = { num = 1; den = 1 }
let minus_one = { num = -1; den = 1 }

let normalize num den =
  if den = 0 then invalid_arg "Rat: zero denominator";
  let s = if den < 0 then -1 else 1 in
  let num = mul_int num s and den = mul_int den s in
  let g = gcd_int num den in
  if g = 0 then zero else { num = num / g; den = den / g }

let make num den = normalize num den
let of_int n = { num = n; den = 1 }

let num t = t.num
let den t = t.den

let is_zero t = t.num = 0
let is_integer t = t.den = 1
let sign t = compare t.num 0

let neg t = { num = -t.num; den = t.den }

(* [add], [mul] and [compare] take a fast path when both operands are
   integers.  It computes what the general formula computes with both
   denominators 1, and raises [Overflow] in exactly the same cases: the
   general formula's other products are by 1 and its normalization
   divides by 1. *)

let add a b =
  if a.den = 1 && b.den = 1 then { num = add_int a.num b.num; den = 1 }
  else
    normalize
      (add_int (mul_int a.num b.den) (mul_int b.num a.den))
      (mul_int a.den b.den)

let sub a b = add a (neg b)

let mul a b =
  if a.den = 1 && b.den = 1 then { num = mul_int a.num b.num; den = 1 }
  else normalize (mul_int a.num b.num) (mul_int a.den b.den)

let div a b =
  if b.num = 0 then invalid_arg "Rat.div: division by zero";
  normalize (mul_int a.num b.den) (mul_int a.den b.num)

let inv t = div one t

let compare a b =
  if a.den = 1 && b.den = 1 then Int.compare a.num b.num
  else
    (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den  (dens > 0) *)
    Stdlib.compare (mul_int a.num b.den) (mul_int b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let lt a b = compare a b < 0
let le a b = compare a b <= 0
let min a b = if le a b then a else b

(** Largest integer [<= t]. *)
let floor t =
  if t.den = 1 then t.num
  else if t.num >= 0 then t.num / t.den
  else -(((-t.num) + t.den - 1) / t.den)

(** Smallest integer [>= t]. *)
let ceil t = -floor (neg t)

let pp ppf t =
  if t.den = 1 then Fmt.int ppf t.num else Fmt.pf ppf "%d/%d" t.num t.den
