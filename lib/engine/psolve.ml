(** Partitioned liquid-constraint solving: execute a
    {!Constr.partition_plan}, merging per-unit {!Fixpoint.partial}s into
    one {!Fixpoint.result}.

    Units run in process, sequentially in id order (always legal: every
    dependency has a smaller id), each one solved by
    {!Fixpoint.solve_unit} from the qualifier instances at its own κs,
    with the merged upstream solutions as its base, and folded into the
    running solution, failure list, and counters.

    Every unit of one call shares one {!Fixpoint.elim}: the
    counterexample pool and bandit that the units fill in id order.  The
    state moves only the work, never the answer.

    The [reuse]/[persist] hooks connect a per-partition result cache:
    each unit is content-addressed by a digest over digests — its own
    constraints and wf environments ({!Constr.unit_signature}), the
    run's qualifier patterns and mined constants, and the final
    solutions of its [part_deps] — everything that determines its
    partial.  Once its dependencies merged (so the key is computable)
    [reuse key] may return a cached partial, skipping both the
    instantiation and the solve; solved units are offered to
    [persist key partial]. *)

open Liquid_smt
open Liquid_logic
open Liquid_infer
module KMap = Constr.KMap

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

let solve ?(reuse : (string -> Fixpoint.partial option) option)
    ?(persist : (string -> Fixpoint.partial -> unit) option)
    ~(quals : Qualifier.t list) ~(consts : int list) (wfs : Constr.wf list)
    (subs : Constr.sub list) (plan : Constr.plan) : outcome =
  let parts = plan.Constr.parts in
  let unit_wfs = Constr.unit_wfs wfs in
  let elim = Fixpoint.fresh_elim () in
  let merged_sol : Constr.solution ref = ref KMap.empty in
  let merged_cands = ref KMap.empty in
  let instantiated = ref Fixpoint.SSet.empty in
  let failures = ref [] in
  let stats = ref (Fixpoint.fresh_stats ()) in
  let infos = ref [] in
  let merge_time = ref 0.0 in
  let caching = reuse <> None || persist <> None in
  let hits = ref 0 and misses = ref 0 in
  (* The digests a key is made of, taken only when caching: one of the
     run's qualifier patterns and mined constants (every unit's initial
     instances are a function of them and of its wf constraints), and
     one of each merged unit's final solution. *)
  let quals_digest =
    if caching then
      Digest.to_hex
        (Digest.string
           (Fmt.str "%a|%s"
              Fmt.(list ~sep:(any " ;; ") Qualifier.pp)
              quals
              (String.concat "," (List.map string_of_int consts))))
    else ""
  in
  let sol_digest = Array.make (Array.length parts) "" in
  let solution_digest (p : Constr.partition) =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map
               (fun k ->
                 Fmt.str "k%d=[%a];" k
                   Fmt.(list ~sep:(any " && ") Pred.pp)
                   (Constr.sol_find !merged_sol k))
               p.Constr.part_kvars)))
  in
  (* Content key of unit [p]; valid once [p]'s dependencies merged. *)
  let key_of (p : Constr.partition) own_wfs =
    Digest.to_hex
      (Digest.string
         (String.concat "\x01"
            (Constr.unit_signature own_wfs p
            :: quals_digest
            :: List.map (fun d -> sol_digest.(d)) p.Constr.part_deps)))
  in
  Array.iteri
    (fun u (p : Constr.partition) ->
      let t0 = Unix.gettimeofday () in
      let own_wfs = unit_wfs p in
      let key = if caching then Some (key_of p own_wfs) else None in
      let cached =
        match (reuse, key) with Some f, Some k -> f k | _ -> None
      in
      let partial, t1 =
        match cached with
        | Some partial ->
            let t1 = Unix.gettimeofday () in
            incr hits;
            (* Replay the recorded solve's SMT-counter movement, and
               re-intern: a partial read back from disk is physically
               foreign to this process's hash-cons tables. *)
            let d = partial.Fixpoint.pr_smt in
            Solver.stats.Solver.queries <-
              Solver.stats.Solver.queries + d.Fixpoint.d_queries;
            Solver.stats.Solver.cache_hits <-
              Solver.stats.Solver.cache_hits + d.Fixpoint.d_cache_hits;
            Solver.stats.Solver.sat_checks <-
              Solver.stats.Solver.sat_checks + d.Fixpoint.d_sat_checks;
            Solver.stats.Solver.unknowns <-
              Solver.stats.Solver.unknowns + d.Fixpoint.d_unknowns;
            (Fixpoint.rehash_partial partial, t1)
        | None ->
            (* Qualifiers are instantiated for the units solved, and
               only at their own κs. *)
            let collapsed = ref 0 in
            let init =
              Fixpoint.init_assignment ~consts ~collapsed quals own_wfs
            in
            let partial =
              Fixpoint.solve_unit ~elim ~base:!merged_sol ~init
                p.Constr.part_subs
            in
            partial.Fixpoint.pr_stats.Fixpoint.alpha_collapsed <- !collapsed;
            let t1 = Unix.gettimeofday () in
            if caching then incr misses;
            (match (persist, key) with
            | Some f, Some k -> f k partial
            | _ -> ());
            (partial, t1)
      in
      merged_cands :=
        Fixpoint.merge_solutions !merged_cands partial.Fixpoint.pr_solution;
      merged_sol :=
        KMap.fold
          (fun k ps acc -> KMap.add k (List.map fst ps) acc)
          partial.Fixpoint.pr_solution !merged_sol;
      if caching then sol_digest.(u) <- solution_digest p;
      instantiated :=
        Fixpoint.SSet.union partial.Fixpoint.pr_quals !instantiated;
      failures := List.rev_append partial.Fixpoint.pr_failures !failures;
      stats := Fixpoint.merge_stats !stats partial.Fixpoint.pr_stats;
      infos :=
        {
          pi_id = u;
          pi_kvars = List.length p.Constr.part_kvars;
          pi_subs = List.length p.Constr.part_subs;
          pi_time = t1 -. t0;
        }
        :: !infos;
      merge_time := !merge_time +. (Unix.gettimeofday () -. t1))
    parts;
  let t0 = Unix.gettimeofday () in
  (* Failures in original-constraint order. *)
  let rank = Hashtbl.create (List.length subs) in
  List.iteri (fun i (c : Constr.sub) -> Hashtbl.add rank c.Constr.sub_id i) subs;
  let failures =
    List.sort
      (fun (a, _) (b, _) ->
        compare (Hashtbl.find rank a) (Hashtbl.find rank b))
      !failures
    |> List.map snd
  in
  let dead_quals =
    Fixpoint.dead_qualifiers ~instantiated:!instantiated ~final:!merged_cands
  in
  merge_time := !merge_time +. (Unix.gettimeofday () -. t0);
  {
    ps_result =
      {
        Fixpoint.solution = !merged_sol;
        failures;
        solver_stats = !stats;
        dead_quals;
      };
    ps_parts = List.rev !infos;
    ps_merge_time = !merge_time;
    ps_punit_hits = !hits;
    ps_punit_misses = !misses;
  }
