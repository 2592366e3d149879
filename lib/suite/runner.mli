(** Running the benchmark suite: verification rows and the paper-style
    results table. *)

type row = {
  bench : Programs.benchmark;
  report : Liquid_driver.Pipeline.report;
  n_extra_quals : int;
  time : float; (* wall-clock seconds for the whole pipeline *)
}

val qualifiers_of : Programs.benchmark -> Liquid_infer.Qualifier.t list

(** Verify one benchmark with its qualifier set ([quals] overrides;
    constant mining off by default — the suite supplies qualifiers
    explicitly, as the paper's evaluation did; [lint] additionally runs
    the semantic-lint pass and fills [report.lints]). *)
val verify :
  ?quals:Liquid_infer.Qualifier.t list ->
  ?mine:bool ->
  ?lint:bool ->
  Programs.benchmark ->
  row

(** Verify every T1 benchmark with its qualifier set. *)
val verify_all : unit -> row list

(** Paper-style results table. *)
val pp_table : Format.formatter -> row list -> unit

(** Execute a benchmark with the reference interpreter; returns its
    [main] value.  Raises on bounds/assertion violations — which, by
    soundness, cannot happen for verified programs. *)
val execute : Programs.benchmark -> Liquid_eval.Eval.value
