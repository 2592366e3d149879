(** ML types and type schemes (Hindley–Milner with mutable unification
    variables and Rémy-style levels). *)

type t =
  | Tint
  | Tbool
  | Tunit
  | Tvar of tv ref
  | Tarrow of t * t
  | Ttuple of t list
  | Tlist of t
  | Tarray of t
  | Tcon of string (* nominal user-declared ADT *)

and tv =
  | Unbound of int * int (* id, level *)
  | Link of t
  | Rigid of int (* generalized variable, printed 'a, 'b, ... *)

val fresh_var : int -> t

(** Restart unification-variable ids, so a run numbers its type
    variables the same whatever the process ran before. *)
val reset_vars : unit -> unit

(** Path-compressing representative. *)
val repr : t -> t

(** Resolve all links, leaving [Unbound]/[Rigid] variables in place. *)
val resolve : t -> t

exception Unify_error of t * t
exception Occurs_check of int * t

val unify : t -> t -> unit

(** Schemes: generalized variables appear as [Rigid k], [0 <= k < nvars]. *)
type scheme = { nvars : int; body : t }

val trivial_scheme : t -> scheme

(** Generalize variables above [level]. *)
val generalize : int -> t -> scheme

(** Instantiate with fresh variables at [level]; also returns the fresh
    types standing for each generalized variable. *)
val instantiate : int -> scheme -> t * t list

val tyvar_name : int -> string
val pp : Format.formatter -> t -> unit
val pp_atom : Format.formatter -> t -> unit
val pp_scheme : Format.formatter -> scheme -> unit
