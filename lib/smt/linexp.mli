(** Linear expressions over solver variables: a finite map from variable
    indices to non-zero rational coefficients, plus a constant. *)

type t

val zero : t
val const : Rat.t -> t
val var : ?coeff:Rat.t -> int -> t

val is_const : t -> bool
val constant : t -> Rat.t
val coeff : int -> t -> Rat.t

val add : t -> t -> t
val scale : Rat.t -> t -> t
val neg : t -> t
val sub : t -> t -> t
val add_term : int -> Rat.t -> t -> t
val add_const : Rat.t -> t -> t

(** Remove a variable, returning its coefficient and the remainder. *)
val remove : int -> t -> Rat.t * t

val fold : (int -> Rat.t -> 'a -> 'a) -> t -> 'a -> 'a

(** Number of variables with a non-zero coefficient. *)
val cardinal : t -> int

val iter : (int -> Rat.t -> unit) -> t -> unit
val vars : t -> int list
val choose_var : t -> (int * Rat.t) option

(** Evaluate under a total assignment. *)
val eval : (int -> Rat.t) -> t -> Rat.t

(** [compare] orders by value and can raise {!Rat.Overflow} on
    fractional coefficients; [equal] and [hash] compare representations
    and never raise. *)
val compare : t -> t -> int

val equal : t -> t -> bool
val hash : t -> int
val pp : (Format.formatter -> int -> unit) -> Format.formatter -> t -> unit
