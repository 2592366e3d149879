(** Predicates (quantifier-free formulas) of the refinement logic:
    boolean combinations of arithmetic/equality atoms between {!Term}s
    and boolean program variables.

    Predicates are {e hash-consed} (like {!Term}s): structural equality
    is physical equality, [compare] is a constant-time id comparison,
    and each node memoizes its hash and free-variable set.  Construct
    with the smart constructors (which also simplify), or with {!make}
    for a verbatim node; pattern-match through {!view} (or the [node]
    field). *)

open Liquid_common

type brel = Eq | Ne | Lt | Le | Gt | Ge

type t = private {
  node : node;
  tag : int; (* unique interning id *)
  hkey : int; (* memoized structural hash *)
  mutable fvs : (Ident.t * Sort.t) list option; (* memoized free vars *)
}

and node =
  | True
  | False
  | Atom of Term.t * brel * Term.t
  | Bvar of Ident.t (* boolean program variable, as a proposition *)
  | Not of t
  | And of t list
  | Or of t list
  | Imp of t * t
  | Iff of t * t

(** Intern a node verbatim (no simplification). *)
val make : node -> t

val view : t -> node
val tag : t -> int
val hash : t -> int

(** Number of distinct predicate nodes interned so far. *)
val interned_count : unit -> int

(** Constant-time: physical equality / interning-id order. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** [rehasher ()] is a memoized re-interner for predicates unmarshalled
    from another process (see {!Term.rehasher}): it maps a physically
    foreign predicate to the canonical local node, restoring physical
    equality and tag-keyed table behaviour.  One rehasher per marshalled
    payload. *)
val rehasher : unit -> t -> t
val is_true : t -> bool
val is_false : t -> bool

(** Hash table keyed on interned predicates (constant-time hash,
    physical-equality buckets). *)
module Tbl : Hashtbl.S with type key = t

(** {1 Smart constructors} — fold constants, flatten and deduplicate
    connectives, push negation through atoms. *)

val tt : t
val ff : t
val atom : Term.t -> brel -> Term.t -> t
val eq : Term.t -> Term.t -> t
val ne : Term.t -> Term.t -> t
val lt : Term.t -> Term.t -> t
val le : Term.t -> Term.t -> t
val gt : Term.t -> Term.t -> t
val ge : Term.t -> Term.t -> t
val bvar : Ident.t -> t
val not_ : t -> t
val conj : t list -> t
val disj : t list -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val imp : t -> t -> t
val iff : t -> t -> t

(** {1 Traversals} *)

(** Fold over the atoms ([Atom]/[Bvar] leaves). *)
val fold_atoms : ('a -> t -> 'a) -> 'a -> t -> 'a

(** Free variables with sorts, deduplicated ([Bvar]s are [Bool]), in
    left-to-right first-occurrence order; memoized per node. *)
val free_vars : t -> (Ident.t * Sort.t) list

val mem_var : Ident.t -> t -> bool

(** Uninterpreted symbols appearing in the predicate. *)
val symbols : t -> Symbol.t list

(** {1 Substitution} *)

(** Values substitutable for a variable: a term, or a predicate (for
    [Bool]-sorted variables appearing as [Bvar] atoms). *)
type value = Tm of Term.t | Pr of t

type subst = value Ident.Map.t

(** Term-valued part of a substitution. *)
val term_part : subst -> Term.t Ident.Map.t

(** Simultaneous substitution; sub-formulas mentioning no substituted
    variable are returned unchanged (preserving sharing). *)
val subst : subst -> t -> t

val subst1 : Ident.t -> value -> t -> t

(** {1 Printing} *)

val pp_brel : Format.formatter -> brel -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Ground evaluation} (used by property tests to cross-check the SMT
    solver against brute force; uninterpreted entities evaluate by
    hashing). *)

val eval_term : int Ident.Map.t -> Term.t -> int
val eval : int Ident.Map.t -> bool Ident.Map.t -> t -> bool
