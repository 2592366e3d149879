(** Partitioned liquid-constraint solving: execute a
    {!Constr.partition_plan} and merge the per-partition results into
    one {!Fixpoint.result}.  Units run in process, sequentially in id
    order. *)

open Liquid_infer

type part_info = {
  pi_id : int;
  pi_kvars : int; (* κs owned *)
  pi_subs : int; (* constraints solved *)
  pi_time : float; (* wall-clock seconds *)
}

type outcome = {
  ps_result : Fixpoint.result;
  ps_parts : part_info list; (* by part_id *)
  ps_merge_time : float; (* seconds re-interning, storing, folding results *)
  ps_punit_hits : int; (* units served from the partition cache *)
  ps_punit_misses : int; (* units solved live (hooks present) *)
}

(** [solve ?reuse ?persist ~quals ~consts wfs subs plan] solves the
    system described by [plan] (built from [wfs]/[subs]) unit by unit, in
    process and in id order.  Each unit solved is first given its
    initial assignment: {!Fixpoint.init_assignment} over the wf
    constraints of its own κs.  Failures are returned in
    original-constraint order.  Every unit shares one {!Fixpoint.elim}
    made for this call, which the units extend in id order.  [subs] must
    be the same list [plan] was built from.

    [reuse]/[persist] connect a per-partition result cache.  Each unit
    is addressed by a content key, a digest of three digests:
    {!Constr.unit_signature} (its constraints and owned-κ wf
    environments), one digest of [quals] (names included) and [consts]
    for the whole call, and the digest of each [part_deps] unit's final
    solution, taken once as that unit merges.  A key matches exactly
    when every input that determines the unit's {!Fixpoint.partial} is
    unchanged; a change to [quals] or [consts] changes every key.
    [reuse key] is consulted once the unit's dependencies merged; a hit
    skips the unit's instantiation and solve and is folded in like a
    solved partial, its recorded SMT-counter movement replayed (counted
    in [ps_punit_hits]).  The partial carries its unit's instantiated
    pattern names and [alpha_collapsed] count, so [dead_quals] and the
    merged counters equal a cold run's.  Units solved live are offered
    to [persist key partial] (and counted in [ps_punit_misses]).
    Without either hook no digest is computed. *)
val solve :
  ?reuse:(string -> Fixpoint.partial option) ->
  ?persist:(string -> Fixpoint.partial -> unit) ->
  quals:Qualifier.t list ->
  consts:int list ->
  Constr.wf list ->
  Constr.sub list ->
  Constr.plan ->
  outcome
