(** Congruence closure for equality with uninterpreted functions (EUF).

    Nodes are hash-consed terms over entity variables (integer ids shared
    with the arithmetic layer), integer constants, and applications.  The
    structure maintains a union-find partition closed under congruence
    and checks disequalities (and distinct-constant merges) eagerly.
    Each assertion carries a source, chosen by the caller, and a proof
    forest records why each merge happened, so an equality between two
    nodes of one class, and a conflict, are explained by sources. *)

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

(** [assert_eq t a b k] and [assert_ne t a b k] assert with source
    [k]. *)

val assert_eq : t -> node -> node -> int -> unit
val assert_ne : t -> node -> node -> int -> unit

(** [Some ks] once a conflict (a disequality, or distinct constants,
    merged) has been detected: the sources, increasing, of the
    assertions behind the first one. *)
val conflict : t -> int list option

val equal : t -> node -> node -> bool

(** [explain t a b] for [a] and [b] of one class: the sources,
    increasing, of the assertions that make them equal. *)
val explain : t -> node -> node -> int list

(** All nodes with their current representative. *)
val nodes_with_reprs : t -> (node * node) list

val expr_of : t -> node -> expr
