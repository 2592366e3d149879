(** Sorts of the refinement logic.

    The logic is many-sorted with three ground sorts:

    - [Int]  — mathematical integers (program [int]s are modelled exactly;
      the paper's logic is linear integer arithmetic);
    - [Bool] — propositional values, so that boolean-valued program
      expressions can appear as atoms in refinements;
    - [Obj]  — every other program value (arrays, tuples, lists,
      functions, type variables).  [Obj] values are uninterpreted: the
      only reasoning available about them is equality and the application
      of uninterpreted function symbols such as [len].

    Function sorts never appear as the sort of a term; they classify the
    (fixed, first-order) signatures of uninterpreted symbols. *)

type t = Int | Bool | Obj

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let pp ppf = function
  | Int -> Fmt.string ppf "int"
  | Bool -> Fmt.string ppf "bool"
  | Obj -> Fmt.string ppf "obj"

let to_string t = Fmt.str "%a" pp t

(** First-order signature of an uninterpreted function symbol. *)
type signature = { args : t list; result : t }
