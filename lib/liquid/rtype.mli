(** Refinement types (liquid type templates).

    A refinement is a conjunction of a concrete predicate over the value
    variable [ν] and a set of liquid type variables κ under pending
    substitutions.  Refinable positions: integer/boolean bases, arrays
    (refinements over [len ν]), lists (refinements over [llen ν]), and
    type variables (concrete selfifications only, transported by
    polymorphic instantiation). *)

open Liquid_common
open Liquid_logic
open Liquid_typing

type kvar = int

type refinement = {
  preds : Pred.t; (* concrete part, over ν *)
  kvars : (kvar * Pred.subst) list; (* κs under pending substitutions *)
}

type base = Bint | Bbool | Bunit

type t =
  | Base of base * refinement
  | Fun of Ident.t * t * t (* x:T1 -> T2; T2 may mention x *)
  | Tuple of t list
  | List of t * refinement
  | Array of t * refinement
  | Data of string * refinement (* user ADT; refinement speaks about measures of ν *)
  | Tyvar of int * refinement

(** {1 Refinements} *)

val known : Pred.t -> refinement
val trivial : refinement
val is_trivial : refinement -> bool
val fresh_kvar_ref : unit -> refinement
val reset_kvars : unit -> unit

(** Conjoin a concrete predicate / another refinement. *)
val strengthen : Pred.t -> refinement -> refinement

val meet : refinement -> refinement -> refinement

(** Logical sort of the classified values. *)
val sort_of : t -> Sort.t

val subst : Pred.subst -> t -> t
val subst1 : Ident.t -> Pred.value -> t -> t

(** {1 Shapes, templates, instantiation} *)

val tyvar_id_of_unbound : int -> int

(** Shape of an ML type with trivial refinements. *)
val shape : Mltype.t -> t

(** Template with a fresh κ at every refinable position. *)
val template : Mltype.t -> t

(** Instantiate a polymorphic binder's type at a use site: [Tyvar]
    positions get one fresh template per type variable, strengthened by
    any refinement the scheme carried there.
    @raise Invalid_argument on shape mismatch. *)
val instantiate : t -> Mltype.t -> t

(** {1 Selfification} *)

(** Uninterpreted projection symbol for tuple component [i] at a sort. *)
val proj_symbol : int -> Sort.t -> Symbol.t

(** Strengthen the top-level refinement with [ν = x] (the paper's rule
    for variable occurrences). *)
val selfify : Ident.t -> t -> t

(** {1 Queries} *)

val kvars : t -> kvar list

(** Program variables mentioned by refinements (including pending
    substitution ranges). *)
val free_prog_vars : t -> Ident.t list

(** [rehash ()] is a memoized re-interner for types unmarshalled from
    another process (see {!Liquid_logic.Pred.rehasher}): it maps every
    foreign predicate and term in the type to the canonical local node.
    One rehasher per marshalled payload. *)
val rehash : unit -> t -> t

(** {1 Printing} *)

val pp_subst : Format.formatter -> Pred.subst -> unit
val pp_refinement : Format.formatter -> refinement -> unit
val pp : Format.formatter -> t -> unit
val pp_atom : Format.formatter -> t -> unit
val to_string : t -> string
