(** Congruence closure for equality with uninterpreted functions (EUF).

    Nodes are hash-consed terms over entity variables (integer ids shared
    with the arithmetic layer), integer constants, and applications.  The
    structure maintains a union-find partition closed under congruence
    and checks disequalities (and distinct-constant merges) eagerly. *)

open Liquid_logic

type node = int

type expr = Evar of int | Econst of int | Eapp of Symbol.t * node list

type t

val create : unit -> t

(** An independent copy, which later assertions to either do not
    reach. *)
val copy : t -> t

(** Node constructors (hash-consed; congruent applications merge). *)

val var : t -> int -> node
val const : t -> int -> node
val app : t -> Symbol.t -> node list -> node

val assert_eq : t -> node -> node -> unit
val assert_ne : t -> node -> node -> unit

(** [false] once a conflict (disequality or distinct constants merged)
    has been detected. *)
val ok : t -> bool

val equal : t -> node -> node -> bool

(** All nodes with their current representative. *)
val nodes_with_reprs : t -> (node * node) list

val expr_of : t -> node -> expr

(** Fold over all application nodes. *)
val fold_apps : ('a -> node -> Symbol.t -> node list -> 'a) -> t -> 'a -> 'a
