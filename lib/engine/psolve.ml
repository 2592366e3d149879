(** Partitioned liquid-constraint solving: execute a
    {!Constr.partition_plan}, merging per-unit {!Fixpoint.partial}s into
    one {!Fixpoint.result}.

    Units run in process, sequentially in id order (always legal: every
    dependency has a smaller id), each one solved by
    {!Fixpoint.solve_unit} with the merged upstream solutions as its
    base, and folded into the running solution, failure list, and
    counters.

    Every unit of one call shares one {!Fixpoint.elim}: the
    counterexample pool and bandit that the units fill in id order.  The
    state moves only the work, never the answer.

    The [reuse]/[persist] hooks connect a per-partition result cache:
    each unit is content-addressed by a key digesting its own
    constraints and wf environments ({!Constr.unit_signature}), its
    instantiated qualifier set, and the final solutions of its
    [part_deps] — everything that determines its partial.  Once its
    dependencies merged (so the key is computable) [reuse key] may
    return a cached partial, skipping the solve entirely; solved units
    are offered to [persist key partial]. *)

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
  let collapsed = ref 0 in
  let initial = Fixpoint.init_assignment ~consts ~collapsed quals wfs in
  let elim = Fixpoint.fresh_elim () in
  (* Initial assignment restricted to each partition's own κs. *)
  let init_of = Array.map
      (fun (p : Constr.partition) ->
        List.fold_left
          (fun acc k ->
            match KMap.find_opt k initial with
            | Some ps -> KMap.add k ps acc
            | None -> acc)
          KMap.empty p.Constr.part_kvars)
      parts
  in
  let merged_sol : Constr.solution ref = ref KMap.empty in
  let merged_cands = ref KMap.empty in
  let failures = ref [] in
  let stats = ref (Fixpoint.fresh_stats ()) in
  let infos = ref [] in
  let merge_time = ref 0.0 in
  let caching = reuse <> None || persist <> None in
  let hits = ref 0 and misses = ref 0 in
  (* Content key of unit [u]; valid once [u]'s dependencies merged
     (their solutions are final in [merged_sol] from then on). *)
  let key_of u =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Constr.unit_signature wfs parts.(u));
    Buffer.add_char buf '\x01';
    KMap.iter
      (fun k ps ->
        Buffer.add_string buf (Fmt.str "k%d:" k);
        List.iter
          (fun (p, names) ->
            Buffer.add_string buf
              (Fmt.str "%a{%s};" Pred.pp p
                 (String.concat "," (Fixpoint.SSet.elements names))))
          ps)
      init_of.(u);
    Buffer.add_char buf '\x01';
    List.iter
      (fun d ->
        List.iter
          (fun k ->
            Buffer.add_string buf
              (Fmt.str "k%d=[%a];" k
                 Fmt.(list ~sep:(any " && ") Pred.pp)
                 (Constr.sol_find !merged_sol k)))
          parts.(d).Constr.part_kvars)
      parts.(u).Constr.part_deps;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  Array.iteri
    (fun u (p : Constr.partition) ->
      let t0 = Unix.gettimeofday () in
      let key = if caching then Some (key_of u) else None in
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
            let partial =
              Fixpoint.solve_unit ~elim ~base:!merged_sol ~init:init_of.(u)
                p.Constr.part_subs
            in
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
    Fixpoint.dead_qualifiers ~initial ~final:!merged_cands
  in
  (!stats).Fixpoint.alpha_collapsed <- !collapsed;
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
