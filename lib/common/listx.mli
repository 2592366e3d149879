(** List helpers missing from the standard library. *)

(** First [n] elements ([xs] itself if shorter). *)
val take : int -> 'a list -> 'a list

(** All but the first [n] elements. *)
val drop : int -> 'a list -> 'a list

(** Cartesian-product map. *)
val product : ('a -> 'b -> 'c) -> 'a list -> 'b list -> 'c list

(** All ways of choosing one element from each list. *)
val choices : 'a list list -> 'a list list

(** Deduplicate, keeping first occurrences in order; O(n log n). *)
val dedup_ordered : compare:('a -> 'a -> int) -> 'a list -> 'a list

(** Last element.  @raise Invalid_argument on the empty list. *)
val last : 'a list -> 'a
