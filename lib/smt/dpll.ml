(** Lazy-SMT search: DPLL over the propositional abstraction, consulting
    the combined theory solver ({!Theory}) at each propositional model.

    The loop is the classic offline lazy schema: find a propositional
    model; check the induced conjunction of theory literals; on theory
    conflict add a blocking clause, the negation of a core of the
    assigned theory literals, and resume.  Every conflict, from the
    first model on, is blocked by a core: the literals the theory names
    as its explanation, or else a core bisected out of the assignment
    ({!shrink_core}).  Termination: a core is a subset of the assigned
    literals, so each blocking clause removes at least the current
    propositional model from a finite space.

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

let theory_unsat lits =
  match Theory.check_sat lits with Theory.Unsat _ -> true | _ -> false

(** Shrink an unsat list [l0 … l(n-1)] to a (locally) minimal core, as
    the greedy deletion filter would: it walks the list with the kept
    literals [kept] (newest first), dropping [li] when [kept @ l(i+1..)]
    is still [unsat].  Under a monotone oracle the next literal it keeps
    from position [i] is [l(t)] for the largest [t >= i] such that
    [kept @ l(t..)] is unsat, so a binary search over [t] finds it in
    about log2(n - i) calls instead of one call per literal.  The search
    stops once [kept] alone is unsat.  Every probe has the filter's
    shape ([kept], newest first, then a suffix in list order), and the
    core comes back in the filter's order, newest kept first. *)
let shrink_core ~(unsat : 'a list -> bool) (lits : 'a list) : 'a list =
  let rec tails l = l :: (match l with [] -> [] | _ :: rest -> tails rest) in
  let suffix = Array.of_list (tails lits) in
  let n = Array.length suffix - 1 in
  (* Invariant: [kept @ suffix.(i)] is unsat. *)
  let rec go kept i =
    let lo = ref i and hi = ref (n + 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if unsat (kept @ suffix.(mid)) then lo := mid else hi := mid
    done;
    match suffix.(!lo) with
    | [] -> kept (* [kept] alone is unsat *)
    | l :: _ -> go (l :: kept) (!lo + 1)
  in
  go [] 0

(* The elements of [l] at the increasing positions [is], in order. *)
let at_positions is l =
  let rec go i is l =
    match (is, l) with
    | j :: is', x :: l' -> if i = j then x :: go (i + 1) is' l' else go (i + 1) is l'
    | _ -> []
  in
  go 0 is l

(** Check satisfiability of [p] (a quantifier-free EUFLIA predicate). *)
let check_sat (p : Liquid_logic.Pred.t) : result =
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
          if asg.(v) <> 0 then lits := (atoms.(v), asg.(v) = 1) :: !lits
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
          if asg.(v) <> 0 then lits := (v, atoms.(v), asg.(v) = 1) :: !lits
        done;
        incr models_total;
        match Theory.check_sat (List.map (fun (_, a, p) -> (a, p)) !lits) with
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
                !lits
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
        | Theory.Unsat explained ->
            (* Block a core of the conflict rather than the whole
               assignment: a short blocking clause excludes
               exponentially more future models.  The theory's
               explanation is a core for free.  A conflict it cannot
               explain is shrunk to a (locally) minimal core by
               bisection, about log2 n theory calls per core literal,
               which pays for itself by slashing the model
               enumeration. *)
            let core =
              match explained with
              | Some is ->
                  (* Reversed, as a bisected core comes back. *)
                  List.rev (at_positions is !lits)
              | None ->
                  shrink_core
                    ~unsat:(fun ls ->
                      theory_unsat (List.map (fun (_, a, p) -> (a, p)) ls))
                    !lits
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
