(** Partitioned liquid-constraint solving: execute a
    {!Constr.partition_plan} and merge the per-partition results into
    one {!Fixpoint.result}.  With [jobs > 1] units run in forked workers
    over the {!Scheduler}; with [jobs <= 1] they run in-process,
    sequentially in id order (no forks, same merge, same results). *)

open Liquid_infer

type part_info = {
  pi_id : int;
  pi_kvars : int; (* κs owned *)
  pi_subs : int; (* constraints solved *)
  pi_time : float; (* wall-clock, across attempts *)
}

type outcome = {
  ps_result : Fixpoint.result;
  ps_parts : part_info list; (* by part_id *)
  ps_merge_time : float; (* seconds re-interning + folding results *)
  ps_punit_hits : int; (* units served from the partition cache *)
  ps_punit_misses : int; (* units solved live (hooks present) *)
}

(** [solve ?incremental ?timeout ?reuse ?persist ~jobs ~quals
    ~consts wfs subs plan] solves the system described by [plan] (built
    from [wfs]/[subs]) with up to [jobs] concurrent workers ([jobs <=
    1]: in-process, sequential).  Failures are returned in
    original-constraint order regardless of scheduling; verdicts and
    inferred refinements are scheduling-independent (the fixpoint is
    unique).  Every unit shares one {!Fixpoint.elim} made for this call:
    in-process units extend it in id order, and a forked worker starts
    from the parent's copy.  [subs] must be the same list [plan] was
    built from.

    [reuse]/[persist] connect a per-partition result cache.  Each unit
    is addressed by a content key digesting {!Constr.unit_signature}
    (its constraints and owned-κ wf environments), its instantiated
    qualifier set, and the final solutions of its [part_deps] — so a
    key matches exactly when every input that determines the unit's
    {!Fixpoint.partial} is unchanged.  [reuse key] is consulted at
    dispatch time (dependencies merged); a hit skips the unit's solve
    and is folded in like a worker result (counted in
    [ps_punit_hits]).  Units solved live are offered to [persist key
    partial] (and counted in [ps_punit_misses]).

    @raise Failure when a forked worker crashes or exceeds [timeout] on
    both of its attempts; the message names the unit, its size and the
    fault.  The workers still running are killed first. *)
val solve :
  ?incremental:bool ->
  ?timeout:float ->
  ?reuse:(string -> Fixpoint.partial option) ->
  ?persist:(string -> Fixpoint.partial -> unit) ->
  jobs:int ->
  quals:Qualifier.t list ->
  consts:int list ->
  Constr.wf list ->
  Constr.sub list ->
  Constr.plan ->
  outcome
