(** Liquid constraints: environments, well-formedness and subtyping
    constraints, splitting into simple constraints, and environment
    embedding. *)

open Liquid_common
open Liquid_logic

(** {1 Environments} *)

type env = {
  binds : (Ident.t * Rtype.t) list; (* newest first *)
  guards : Pred.t list;
}

val empty_env : env
val bind_var : Ident.t -> Rtype.t -> env -> env
val guard : Pred.t -> env -> env
val lookup_env : env -> Ident.t -> Rtype.t option

(** Variables usable in qualifier instances, with their sorts (functions
    and unit excluded). *)
val scope_of_env : env -> (Ident.t * Sort.t) list

(** {1 Constraints} *)

type origin = { loc : Loc.t; reason : string }

(** Right-hand side of a simple constraint: a κ to weaken, or a concrete
    obligation checked after the fixpoint. *)
type rhs = Rkvar of Rtype.kvar * Pred.subst | Rconc of Pred.t

type sub = {
  sub_id : int;
  sub_env : env;
  lhs : Rtype.refinement;
  rhs : rhs;
  vv_sort : Sort.t;
  origin : origin;
}

type wf = { wf_env : env; wf_kvar : Rtype.kvar; wf_sort : Sort.t }

exception Shape_error of string

(** Restart [sub_id] numbering.  Constraints never outlive one
    verification run, and per-run-stable ids keep failure ordering,
    explanations, and partition-cache keys ({!unit_signature})
    independent of what the process verified before — a warm daemon or
    a test harness numbers exactly like a one-shot run.  Call alongside
    {!Rtype.reset_kvars} before generating a constraint system. *)
val reset_subs : unit -> unit

(** {1 Splitting} *)

val base_sort : Rtype.base -> Sort.t

(** Logical value standing for a variable of a given type. *)
val var_value : Rtype.t -> Ident.t -> Pred.value

(** Split [env ⊢ t1 <: t2] into simple constraints (functions
    contravariant, arrays invariant, lists covariant).
    @raise Shape_error on incompatible shapes. *)
val split : env -> origin -> Rtype.t -> Rtype.t -> sub list -> sub list

(** Well-formedness constraints for every κ of a template, binders
    entering scope per the paper's rules. *)
val split_wf : env -> Rtype.t -> wf list -> wf list

(** {1 Dependency structure and partitioning} *)

(** κs read by a constraint (environment and left-hand side): weakening
    any of them can weaken the constraint's right-hand κ. *)
val reads : sub -> int list

(** The κ a constraint weakens ([None]: a concrete obligation). *)
val writes : sub -> int option

(** A {e solve unit}: one strongly-connected component of the κ→κ
    dependency graph, owning the constraints that weaken its κs plus the
    concrete obligations attached to it.  Units are numbered in
    topological order — every [part_deps] entry is a smaller id — so a
    scheduler may run any unit whose dependencies have completed, and
    sequential execution in id order is always legal. *)
type partition = {
  part_id : int; (* topological index: every dependency has a smaller id *)
  part_kvars : int list; (* κs owned (weakened) by this unit, sorted *)
  part_subs : sub list; (* constraints solved here, in original order *)
  part_deps : int list; (* part_ids whose final solutions this unit reads *)
}

type plan = {
  parts : partition array; (* topologically ordered *)
  plan_kvars : int; (* κs in the dependency graph *)
  critical_path : int; (* longest dependency chain, in partitions *)
}

(** Condense the κ→κ dependency graph of a constraint system into the
    solve-unit plan: SCC condensation in topological order, κ-weakening
    constraints attached to the unit owning their κ, concrete
    obligations attached to the latest unit among the κs they read (with
    dependency edges on the others). *)
val partition_plan : wf list -> sub list -> plan

(** {1 Embedding} *)

module KMap : Map.S with type key = int

type solution = Pred.t list KMap.t

val sol_find : solution -> int -> Pred.t list

(** {2 Compiled slots}

    One structural traversal of a binding's type compiles it into
    {e slots}: a κ-independent fact, or a κ occurrence whose
    instantiation ([ν := value] ∘ θ) is applied to the κ's solution
    preds on expansion.  Every antecedent — the weakening loop's, the
    concrete pass's, the explanation engine's — is an expansion of
    slots, so all agree fact for fact and in order. *)

type slot =
  | Sstatic of Pred.t
  | Ssite of Rtype.kvar * (Pred.t -> Pred.t) (* instantiation *)

(** How a κ occurrence [ν := value] ∘ θ is applied to a solution pred.
    The [compile_*] functions substitute on every application unless
    given another [inst]. *)
type inst = Pred.value -> Pred.subst -> Pred.t -> Pred.t

(** Memoize per solution pred: for slots that are expanded again and
    again as the solution weakens. *)
val memoized_inst : inst

(** Slots of a refinement with [ν := value]. *)
val compile_refinement :
  ?inst:inst -> Pred.value -> Rtype.refinement -> slot list

(** The binding slots of an environment, each with its binder. *)
val compile_env : ?inst:inst -> env -> (Ident.t * slot) list

(** The facts of [slots] under a κ lookup, in order, each with the κ
    whose solution instance it is ([None]: a static fact — a refinement's
    static part or a measure axiom).  Nothing is filtered. *)
val expand :
  (Rtype.kvar -> Pred.t list) -> slot list -> (Pred.t * Rtype.kvar option) list

(** {2 Expansions} *)

(** Predicates denoted by a refinement with [ν := value], under a κ
    lookup: the expansion of {!compile_refinement}. *)
val preds_of_refinement :
  (Rtype.kvar -> Pred.t list) -> Pred.value -> Rtype.refinement -> Pred.t list

(** Provenance of one antecedent fact: the environment binder that
    contributed it ([None] for guards) and the κ whose solution instance
    it is ([None] for static refinement parts and measure axioms). *)
type fact_origin = { fo_binder : Ident.t option; fo_kvar : Rtype.kvar option }

(** Antecedent facts of an environment with their provenance: the
    expansion of {!compile_env} with [tt] dropped, and the guards,
    returned separately so the solver can exempt them from relevance
    pruning. *)
val embed_env_trace :
  (Rtype.kvar -> Pred.t list) -> env -> (Pred.t * fact_origin) list * Pred.t list

(** {!embed_env_trace} without provenance: (binding facts, guards). *)
val embed_env :
  (Rtype.kvar -> Pred.t list) -> env -> Pred.t list * Pred.t list

(** {1 Content signatures} (partition-level result cache)

    [unit_signature wfs p] digests a canonical rendering of everything
    {e local} to solve unit [p]: its constraints (ids, full
    environments with κ occurrences, left- and right-hand sides, sorts,
    origins — origins included because cached failures replay their
    locations verbatim) and the well-formedness constraints of the κs
    it owns (whose environments determine the unit's qualifier
    instances).  Together with the instantiated qualifier set and the
    final solutions of the unit's [part_deps] — supplied by the caller,
    which knows them — the signature content-addresses the unit's
    {!Liquid_infer.Fixpoint.partial}: equal inputs, equal result.

    Stability: κ numbers, constraint ids, and source locations restart
    deterministically per run, so an edit that preserves the shape of
    the program upstream of a unit (and the unit's own text) reproduces
    its signature exactly; an edit that renumbers κs or shifts lines
    through it changes the signature and honestly forces a re-solve. *)
val unit_signature : wf list -> partition -> string

(** {1 Printing} *)

val pp_origin : Format.formatter -> origin -> unit
val pp_rhs : Format.formatter -> rhs -> unit
val pp_sub : Format.formatter -> sub -> unit
val pp_wf : Format.formatter -> wf -> unit
