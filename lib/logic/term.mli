(** First-order terms of the refinement logic.

    Terms are sorted ({!Sort.Int} or {!Sort.Obj}); boolean program values
    appear at the predicate level ({!Pred}), never as terms.  Variables
    carry their sort so downstream passes never need a symbol table.

    Terms are {e hash-consed}: structurally equal terms are physically
    equal, [compare] is a constant-time id comparison, and every node
    memoizes its hash, free-variable set and {!to_string}.  Construct terms with the
    smart constructors (which also fold constants), or with {!make} for a
    verbatim node; pattern-match through {!view} (or the [node] field). *)

open Liquid_common

type t = private {
  node : node;
  tag : int; (* unique interning id *)
  hkey : int; (* memoized structural hash *)
  mutable fvs : (Ident.t * Sort.t) list option; (* memoized free vars *)
  mutable text : string option; (* memoized [to_string] *)
}

and node =
  | Int of int
  | Var of Ident.t * Sort.t
  | App of Symbol.t * t list
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t (* linearized or purified to [Symbol.mul] downstream *)

(** Intern a node verbatim (no simplification, no arity check). *)
val make : node -> t

val view : t -> node
val tag : t -> int
val hash : t -> int

(** Number of distinct term nodes interned so far. *)
val interned_count : unit -> int

(** Constant-time: physical equality / interning-id order.  The id
    order is allocation order in this process, so no output may depend
    on it. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** [rehasher ()] is a memoized re-interner for terms unmarshalled from
    another process: it maps a physically foreign (but structurally
    valid) term to the canonical local node, so physical equality and
    tag-keyed tables work again.  Use one rehasher per marshalled
    payload (the memo is keyed on the payload's own tags). *)
val rehasher : unit -> t -> t

(** Sort of a term; arithmetic is [Int], applications use the head's
    result sort. *)
val sort : t -> Sort.t

(** Free variables with sorts, deduplicated, in left-to-right
    first-occurrence order; memoized per node.  [free_vars] is the
    accumulating variant ([vars t @ acc]). *)
val free_vars : (Ident.t * Sort.t) list -> t -> (Ident.t * Sort.t) list

val vars : t -> (Ident.t * Sort.t) list
val mem_var : Ident.t -> t -> bool

(** Simultaneous substitution of terms for variables; returns the term
    unchanged (preserving sharing) when no substituted variable occurs. *)
val subst : t Ident.Map.t -> t -> t

val subst1 : Ident.t -> t -> t -> t

(** Smart constructors; fold constants and drop units. *)

val int : int -> t
val var : Ident.t -> Sort.t -> t

(** @raise Invalid_argument on arity mismatch. *)
val app : Symbol.t -> t list -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
