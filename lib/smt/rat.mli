(** Exact rationals on native integers with overflow checking.

    Every operation that could overflow raises {!Overflow}; the SMT
    solver treats that as "unknown", which the liquid fixpoint soundly
    reads as "not valid". *)

exception Overflow

(** Overflow-checked native integer helpers (exposed for {!Lia}). *)

val add_int : int -> int -> int
val mul_int : int -> int -> int
val gcd_int : int -> int -> int

(** Rationals, kept normalized: positive denominator, gcd 1. *)
type t

val zero : t
val one : t
val minus_one : t

(** @raise Invalid_argument on zero denominator. *)
val make : int -> int -> t

val of_int : int -> t
val num : t -> int
val den : t -> int

val is_zero : t -> bool
val is_integer : t -> bool
val sign : t -> int

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Invalid_argument on division by zero. *)
val div : t -> t -> t

val inv : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val lt : t -> t -> bool
val le : t -> t -> bool
val min : t -> t -> t

(** Largest integer [<= t]. *)
val floor : t -> int

(** Smallest integer [>= t]. *)
val ceil : t -> int

val pp : Format.formatter -> t -> unit
