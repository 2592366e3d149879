(** List helpers missing from the standard library. *)

(** First [n] elements ([xs] itself if shorter). *)
val take : int -> 'a list -> 'a list

(** All but the first [n] elements. *)
val drop : int -> 'a list -> 'a list

(** Deduplicate, keeping first occurrences in order; O(n log n). *)
val dedup_ordered : compare:('a -> 'a -> int) -> 'a list -> 'a list
