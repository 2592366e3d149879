(** The paper's benchmark suite: NanoML ports of the 11 DML array-bounds
    programs of the PLDI 2008 evaluation. *)

type benchmark = {
  name : string;
  description : string;
  source : string; (* NanoML source, with a [main] exercising it *)
  extra_qualifiers : string; (* qualifier declarations beyond the defaults *)
  dml_annot : int; (* paper-reported DML annotation size (chars) *)
  paper_lines : int; (* paper-reported LOC, for reference *)
}

val dotprod : benchmark
val bcopy : benchmark
val bsearch : benchmark
val queens : benchmark
val isort : benchmark
val tower : benchmark
val matmult : benchmark
val heapsort : benchmark
val fft : benchmark
val simplex : benchmark
val gauss : benchmark

(** The full suite, in the paper's table order. *)
val all : benchmark list

(** @raise Not_found for unknown names. *)
val find : string -> benchmark

(** A planted bug: replacing [what] by [with_] in [bench]'s source (an
    off-by-one or a dropped guard) must make it unsafe. *)
type mutant = {
  bench : benchmark;
  bug : string; (* what the mutation breaks *)
  what : string;
  with_ : string;
}

(** One mutant for each of eight T1 programs. *)
val mutants : mutant list

(** The mutant's benchmark, with every occurrence of [what] replaced.
    @raise Invalid_argument if [what] does not occur in the source. *)
val mutate : mutant -> benchmark
