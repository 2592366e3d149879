(** Sorts of the refinement logic.

    Three ground sorts: [Int] (mathematical integers), [Bool]
    (propositions), and [Obj] (every other program value, uninterpreted).
    Function sorts classify the fixed first-order signatures of
    uninterpreted symbols; they never sort a term. *)

type t = Int | Bool | Obj

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** First-order signature of an uninterpreted function symbol. *)
type signature = { args : t list; result : t }
