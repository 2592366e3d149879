(** Lazy-SMT search: DPLL over the propositional abstraction, consulting
    the combined theory solver ({!Theory}) at each propositional model.

    The loop is the offline lazy schema over incremental theory states:
    find a propositional model; decide the induced conjunction of theory
    literals; on theory conflict add a blocking clause, the negation of
    a core of the assigned theory literals, and resume.  Every conflict,
    from the first model on, is blocked by a core: the literals the
    theory names as its explanation.  Termination: a core is a subset of
    the assigned literals, so each blocking clause removes at least the
    current propositional model from a finite space.

    No conjunction is rebuilt from nothing.  The literals unit
    propagation forces hold in every model; the state that decides them
    extends the repaired state of the query's {e base}, its top-level
    atomic conjuncts after the first (for a validity query, its
    hypotheses), and each model's state extends the forced one by the
    model's other literals.  A model with no other literal takes the
    forced state's answer.  One entry keeps the last base's state, so
    the next query over the same hypotheses starts from it; a kept state
    is exactly the one a query would build, so answers and work units do
    not depend on which query came before.

    The propositional search itself is a recursive DPLL with unit
    propagation, stopping as soon as every clause is satisfied (leaving
    irrelevant atoms unassigned keeps theory conjunctions small and
    blocking clauses general). *)

(** [Sat (display, raw)]: the counterexample assignment under display
    and original labels, as {!Theory.answer} carries it. *)
type result = Sat of Theory.model * Theory.model | Unsat | Unknown

let models_total = ref 0

type assignment = int array (* 0 = unassigned, 1 = true, -1 = false *)

let var_of_lit l = abs l - 1
let sign_of_lit l = if l > 0 then 1 else -1

(* [eval_clause] on the literals left, [n] of those before unassigned
   and [last] the latest of them. *)
let rec eval_lits (asg : assignment) n last = function
  | [] -> if n = 0 then `Conflict else if n = 1 then `Unit last else `Open
  | l :: rest -> (
      match asg.(var_of_lit l) with
      | 0 -> eval_lits asg (n + 1) l rest
      | v -> if v = sign_of_lit l then `Sat else eval_lits asg n last rest)

(** Evaluate a clause: [`Sat], [`Conflict], or [`Unit l], or [`Open].
    Counts the unassigned literals, keeping the last, and stops at the
    first true one. *)
let eval_clause (asg : assignment) (c : Prop.clause) = eval_lits asg 0 0 c

(** Unit propagation to fixpoint; returns the trail of assigned literals,
    or [None] on conflict (after undoing its own assignments). *)
let propagate (asg : assignment) clauses =
  let trail = ref [] in
  let undo () = List.iter (fun l -> asg.(var_of_lit l) <- 0) !trail in
  let progress = ref true in
  let conflict = ref false in
  while !progress && not !conflict do
    progress := false;
    List.iter
      (fun c ->
        if not !conflict then
          match eval_clause asg c with
          | `Conflict -> conflict := true
          | `Unit l ->
              asg.(var_of_lit l) <- sign_of_lit l;
              trail := l :: !trail;
              progress := true
          | `Sat | `Open -> ())
      clauses
  done;
  if !conflict then begin
    undo ();
    None
  end
  else Some !trail

let all_sat asg clauses =
  List.for_all (fun c -> eval_clause asg c = `Sat) clauses

(** Find a propositional model (partial: stops once all clauses are
    satisfied).  Returns [true] and leaves the model in [asg]. *)
let rec find_model (asg : assignment) nvars clauses =
  match propagate asg clauses with
  | None -> false
  | Some trail ->
      if all_sat asg clauses then true
      else begin
        (* Pick the first unassigned variable appearing in an unsatisfied
           clause (guaranteed to exist). *)
        let pick = ref (-1) in
        (try
           List.iter
             (fun c ->
               match eval_clause asg c with
               | `Open | `Unit _ ->
                   List.iter
                     (fun l ->
                       if asg.(var_of_lit l) = 0 then begin
                         pick := var_of_lit l;
                         raise Exit
                       end)
                     c
               | _ -> ())
             clauses
         with Exit -> ());
        let v = !pick in
        if v < 0 then (* all clauses decided; should have been caught *)
          true
        else begin
          let try_value value =
            asg.(v) <- value;
            if find_model asg nvars clauses then true
            else begin
              asg.(v) <- 0;
              false
            end
          in
          if try_value 1 then true
          else if try_value (-1) then true
          else begin
            List.iter (fun l -> asg.(var_of_lit l) <- 0) trail;
            false
          end
        end
      end

(* -- The base of a query ----------------------------------------------- *)

(* The literal of a top-level atomic conjunct, canonicalized as
   {!Prop.of_pred} canonicalizes atoms. *)
let literal_of_conjunct q =
  let open Liquid_logic.Pred in
  match view q with
  | Atom _ | Bvar _ -> Some (Prop.canon q)
  | Not r -> (
      match view r with
      | Atom _ | Bvar _ ->
          let a, pos = Prop.canon r in
          Some (a, not pos)
      | _ -> None)
  | _ -> None

(** The base of [p]: the literals of its top-level atomic conjuncts
    after the first, in order, each atom once, and the table of their
    atoms.  For a validity query [¬goal ∧ hyps] that is its hypotheses.
    Each is forced by unit propagation, so where propagation succeeds no
    atom comes with both polarities. *)
let base_of (p : Liquid_logic.Pred.t) : Theory.lit list * unit Liquid_logic.Pred.Tbl.t =
  let atoms = Liquid_logic.Pred.Tbl.create 16 in
  let lits =
    match Liquid_logic.Pred.view p with
    | Liquid_logic.Pred.And (_ :: rest) ->
        List.filter_map
          (fun q ->
            match literal_of_conjunct q with
            | Some (a, _) when Liquid_logic.Pred.Tbl.mem atoms a -> None
            | Some ((a, _) as l) ->
                Liquid_logic.Pred.Tbl.add atoms a ();
                Some l
            | None -> None)
          rest
    | _ -> []
  in
  (lits, atoms)

let same_lits (l : Theory.lit list) (l' : Theory.lit list) =
  List.equal (fun (a, pos) (b, pos') -> a == b && pos = pos') l l'

(* The repaired state of the last base, and the pivots that built it.
   A query over the same base extends it instead of building it again,
   and is metered as if it had built it. *)
type base = { lits : Theory.lit list; state : Theory.state; pivots : int }

let last_base : base option ref = ref None

let forget_base () = last_base := None

(* The state of [lits], repaired: the kept one if [lits] is the last
   base, else a new one, which is then kept.  With the pivots it took to
   build, replayed for a kept one. *)
let base_state lits =
  match !last_base with
  | Some b when same_lits b.lits lits -> (b.state, b.pivots)
  | _ ->
      let p0 = !Simplex.npivots in
      let state = Theory.create () in
      Theory.assert_lits state lits;
      Theory.repair state;
      last_base := Some { lits; state; pivots = !Simplex.npivots - p0 };
      (state, 0)

(* -- Checking ----------------------------------------------------------- *)

(** Check satisfiability of [p] (a quantifier-free EUFLIA predicate). *)
let check_sat (p : Liquid_logic.Pred.t) : result * int =
  let w0 = !Theory.nlits_total + !Simplex.npivots in
  let work replayed = !Theory.nlits_total + !Simplex.npivots - w0 + replayed in
  let cnf = Prop.of_pred p in
  (* [of_pred] interns atoms first, so they form the variable prefix:
     variable [v] names the theory atom [atoms.(v)] below [natoms], and
     a Tseitin definition above. *)
  let atoms = cnf.Prop.atoms in
  let clauses0 = [ cnf.Prop.root ] :: cnf.Prop.clauses in
  let nvars =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc l -> max acc (abs l)) acc c)
      1 clauses0
  in
  let natoms = Array.length atoms in
  (* Theory literals (variable id, atom, polarity) of an assignment,
     newest variable first. *)
  let theory_lits asg =
    let lits = ref [] in
    for v = 0 to natoms - 1 do
      if asg.(v) <> 0 then lits := (v, atoms.(v), asg.(v) = 1) :: !lits
    done;
    !lits
  in
  let conj = List.map (fun (_, a, pos) -> (a, pos)) in
  let asg0 = Array.make nvars 0 in
  match propagate asg0 clauses0 with
  | None -> (Unsat, work 0)
  | Some _ ->
  (* Fast path: literals forced by unit propagation hold in every
     propositional model, so if they are already theory-inconsistent the
     whole formula is unsatisfiable after a single theory call.  Liquid
     validity queries are dominated by this case: hypotheses are mostly
     top-level conjuncts and goals are atomic, so the contradiction is
     usually visible without any case analysis.  The forced state
     extends the state of the base, which the base's literals, all
     forced, share with the last query over the same hypotheses; every
     model then extends the forced state. *)
  let forced = theory_lits asg0 in
  let base, base_atoms = base_of p in
  let forced_st, replayed =
    if base = [] then (Theory.create (), 0)
    else
      let st, pivots = base_state base in
      (Theory.copy st, pivots)
  in
  Theory.assert_lits forced_st
    (conj (List.filter (fun (_, a, _) -> not (Liquid_logic.Pred.Tbl.mem base_atoms a)) forced));
  let fast =
    if forced = [] then None
    else begin
      Theory.nlits_total := !Theory.nlits_total + List.length forced;
      Some (Theory.decide forced_st)
    end
  in
  match fast with
  | Some (Theory.Unsat _) -> (Unsat, work replayed)
  | _ ->
  let extra = ref [] in
  let rec loop iters =
    if iters <= 0 then Unknown
    else begin
      let asg = Array.make nvars 0 in
      if not (find_model asg nvars (clauses0 @ !extra)) then Unsat
      else begin
        (* Project onto theory literals (variable id, atom, polarity). *)
        let lits = theory_lits asg in
        incr models_total;
        Theory.nlits_total := !Theory.nlits_total + List.length lits;
        (* The model's literals beyond the forced ones; with none, the
           fast path has decided the model already. *)
        let unforced = List.filter (fun (v, _, _) -> asg0.(v) = 0) lits in
        let answer =
          match fast with
          | Some answer when unforced = [] -> answer
          | _ ->
              let st = Theory.copy forced_st in
              Theory.assert_lits st (conj unforced);
              Theory.decide st
        in
        match answer with
        | Theory.Sat (from_theory, from_theory_raw) ->
            (* The theory model only values arithmetic entities; boolean
               program variables live as propositional [Bvar] atoms whose
               truth values the DPLL assignment itself carries.  Merge
               them in so boolean counterexample values surface too. *)
            let bools_raw =
              List.filter_map
                (fun (_, a, pos) ->
                  match Liquid_logic.Pred.view a with
                  | Liquid_logic.Pred.Bvar x ->
                      Some
                        ( Liquid_common.Ident.to_string x,
                          Theory.Vbool pos )
                  | _ -> None)
                lits
            in
            let bools = Theory.display_labels bools_raw in
            let merge from_theory bools =
              List.sort compare
                (from_theory
                @ List.filter
                    (fun (l, _) -> not (List.mem_assoc l from_theory))
                    bools)
            in
            Sat (merge from_theory bools, merge from_theory_raw bools_raw)
        | Theory.Unknown -> Unknown
        | Theory.Unsat named ->
            (* Block the theory's explanation of the conflict rather
               than the whole assignment: a short blocking clause
               excludes exponentially more future models.  Its
               literals come oldest variable first. *)
            let core =
              List.rev
                (List.filter
                   (fun (_, a, pos) -> List.exists (fun (b, pos') -> a == b && pos = pos') named)
                   lits)
            in
            let blocking =
              List.map (fun (v, _, pos) -> if pos then -(v + 1) else v + 1) core
            in
            extra := blocking :: !extra;
            loop (iters - 1)
      end
    end
  in
  let r = loop 2000 in
  (r, work replayed)
