(** Extended benchmark suite (ours): programs beyond the paper's table,
    exercising modular-arithmetic indexing, triangular updates, flag
    arrays, two-array scanning, rectangular matrices and memoization.
    Verified with constant mining enabled. *)

type benchmark = Programs.benchmark

val queue : benchmark
val pascal : benchmark
val sieve : benchmark
val selsort : benchmark
val strmatch : benchmark
val transpose : benchmark
val fibmemo : benchmark

val all : benchmark list

(** @raise Not_found for unknown names. *)
val find : string -> benchmark

(** One mutant for each of six programs (not selsort); each verifies
    unsafe with constant mining. *)
val mutants : Programs.mutant list
