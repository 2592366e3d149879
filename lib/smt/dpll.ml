(** Lazy-SMT search: DPLL over the propositional abstraction, consulting
    the combined theory solver ({!Theory}) at each propositional model.

    The loop is the classic offline lazy schema: find a propositional
    model; check the induced conjunction of theory literals; on theory
    conflict add a blocking clause (the negation of the assigned theory
    literals) and resume.  Termination: each blocking clause removes at
    least one propositional model from a finite space.

    The propositional search itself is a recursive DPLL with unit
    propagation, stopping as soon as every clause is satisfied (leaving
    irrelevant atoms unassigned keeps theory conjunctions small and
    blocking clauses general). *)

(** [Sat (display, raw)]: the counterexample assignment under display
    and original labels, as {!Theory.result} carries it. *)
type result = Sat of Theory.model * Theory.model | Unsat | Unknown

let models_total = ref 0

type assignment = int array (* 0 = unassigned, 1 = true, -1 = false *)

let var_of_lit l = abs l - 1
let sign_of_lit l = if l > 0 then 1 else -1

(** Evaluate a clause: [`Sat], [`Conflict], or [`Unit l], or [`Open]. *)
let eval_clause (asg : assignment) (c : Prop.clause) =
  let unassigned = ref [] in
  let sat = ref false in
  List.iter
    (fun l ->
      match asg.(var_of_lit l) with
      | 0 -> unassigned := l :: !unassigned
      | v -> if v = sign_of_lit l then sat := true)
    c;
  if !sat then `Sat
  else
    match !unassigned with
    | [] -> `Conflict
    | [ l ] -> `Unit l
    | _ -> `Open

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

let theory_unsat lits =
  match Theory.check_sat lits with Theory.Unsat -> true | _ -> false

(** Satisfiability of a CNF whose theory atoms are named by [atoms]:
    [atoms.(v) = Some a] maps propositional variable [v] to theory atom
    [a] ([None]: a Tseitin definition variable).  {!check_sat} wraps this
    for a one-shot predicate. *)
let check_sat_cnf ~(nvars : int) ~(atoms : Liquid_logic.Pred.t option array)
    (clauses0 : Prop.clause list) : result =
  let nvars =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc l -> max acc (abs l)) acc c)
      nvars clauses0
  in
  let natoms = Array.length atoms in
  (* Fast path: literals forced by unit propagation hold in every
     propositional model, so if they are already theory-inconsistent the
     whole formula is unsatisfiable after a single theory call.  Liquid
     validity queries are dominated by this case: hypotheses are mostly
     top-level conjuncts and goals are atomic, so the contradiction is
     usually visible without any case analysis. *)
  let fast =
    let asg = Array.make nvars 0 in
    match propagate asg clauses0 with
    | None -> Some Unsat
    | Some _ ->
        let lits = ref [] in
        for v = 0 to natoms - 1 do
          match atoms.(v) with
          | Some a when asg.(v) <> 0 -> lits := (a, asg.(v) = 1) :: !lits
          | _ -> ()
        done;
        if !lits <> [] && theory_unsat !lits then Some Unsat else None
  in
  match fast with
  | Some r -> r
  | None ->
  let extra = ref [] in
  let rec loop iters =
    if iters <= 0 then Unknown
    else begin
      let asg = Array.make nvars 0 in
      if not (find_model asg nvars (clauses0 @ !extra)) then Unsat
      else begin
        (* Project onto theory literals (variable id, atom, polarity). *)
        let lits = ref [] in
        for v = 0 to natoms - 1 do
          match atoms.(v) with
          | Some a when asg.(v) <> 0 -> lits := (v, a, asg.(v) = 1) :: !lits
          | _ -> ()
        done;
        incr models_total;
        match Theory.check_sat (List.map (fun (_, a, p) -> (a, p)) !lits) with
        | Theory.Sat (from_theory, from_theory_raw) ->
            (* The theory model only values arithmetic entities; boolean
               program variables live as propositional [Bvar] atoms whose
               truth values the DPLL assignment itself carries.  Merge
               them in so boolean counterexample values surface too. *)
            let bools =
              List.filter_map
                (fun (_, a, pos) ->
                  match Liquid_logic.Pred.view a with
                  | Liquid_logic.Pred.Bvar x -> (
                      match
                        Theory.clean_label (Liquid_common.Ident.to_string x)
                      with
                      | Some l -> Some (l, Theory.Vbool pos)
                      | None -> None)
                  | _ -> None)
                !lits
            in
            let bools_raw =
              List.filter_map
                (fun (_, a, pos) ->
                  match Liquid_logic.Pred.view a with
                  | Liquid_logic.Pred.Bvar x ->
                      Some
                        ( Liquid_common.Ident.to_string x,
                          Theory.Vbool pos )
                  | _ -> None)
                !lits
            in
            let merge from_theory bools =
              List.sort compare
                (from_theory
                @ List.filter
                    (fun (l, _) -> not (List.mem_assoc l from_theory))
                    bools)
            in
            Sat (merge from_theory bools, merge from_theory_raw bools_raw)
        | Theory.Unknown -> Unknown
        | Theory.Unsat ->
            (* Shrink the conflict to a (locally) minimal unsat core before
               blocking: a short blocking clause excludes exponentially
               more future models than the full assignment would.  The
               greedy deletion filter costs one theory call per literal,
               which pays for itself by slashing the model enumeration. *)
            let core =
              (* Adaptive: plain blocking is cheapest when a query needs
                 only a few models; once enumeration shows signs of
                 blowing up, pay for minimal cores. *)
              if 2000 - iters < 8 || List.length !lits > 100 then !lits
              else
                let rec shrink kept pending =
                  match pending with
                  | [] -> kept
                  | l :: rest ->
                      let test =
                        List.map (fun (_, a, p) -> (a, p)) (kept @ rest)
                      in
                      if theory_unsat test then shrink kept rest
                      else shrink (l :: kept) rest
                in
                shrink [] !lits
            in
            let blocking =
              List.map (fun (v, _, pos) -> if pos then -(v + 1) else v + 1) core
            in
            extra := blocking :: !extra;
            loop (iters - 1)
      end
    end
  in
  loop 2000

(** Check satisfiability of [p] (a quantifier-free EUFLIA predicate). *)
let check_sat (p : Liquid_logic.Pred.t) : result =
  let cnf = Prop.of_pred p in
  (* [of_pred] interns atoms first, so they form the variable prefix. *)
  let atoms = Array.map Option.some cnf.Prop.atoms in
  check_sat_cnf ~nvars:1 ~atoms ([ cnf.Prop.root ] :: cnf.Prop.clauses)
