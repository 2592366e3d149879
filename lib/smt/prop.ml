(** Propositional abstraction of predicates.

    Maps a {!Liquid_logic.Pred} formula to CNF over propositional
    variables via Tseitin encoding.  Theory atoms occupy the low variable
    ids ([0 .. natoms-1]); Tseitin definition variables come after, so the
    DPLL layer can cheaply project a propositional model onto theory
    literals.

    Atoms are canonicalized before being interned ([Gt]/[Ge] swap into
    [Lt]/[Le]; [Ne] becomes negated [Eq]; equalities are oriented by a
    structural term order) so that syntactic variants share a
    propositional variable. *)

open Liquid_logic

(** A literal is [v+1] (positive) or [-(v+1)] (negative) for variable [v]. *)
type lit = int

type clause = lit list

type cnf = {
  clauses : clause list;
  natoms : int; (* theory atoms are variables [0 .. natoms-1] *)
  atoms : Pred.t array; (* atom of each theory variable *)
  root : lit; (* literal representing the whole formula *)
}

type builder = {
  mutable next : int;
  atom_tbl : int Pred.Tbl.t; (* keyed on interned atoms: O(1) hash/equal *)
  mutable atom_list : Pred.t list; (* reversed *)
  mutable cls : clause list;
}

let lit_of v = v + 1
let neg_lit l = -l

(** Canonicalize an atom; returns the canonical atom and a polarity flip.
    Memoized per interned atom (the term bank): atoms recur across every
    query of a run, and hash-consing makes the table key O(1). *)
let canon_tbl : (Pred.t * bool) Pred.Tbl.t = Pred.Tbl.create 4096

(* The side of an equality that goes first: printed form descending,
   ties broken by sort.  It must not read interning tags: they follow
   allocation order in this process, so a process that had interned the
   same terms in another order would orient literals differently and
   find other models.  Distinct terms that print alike and share a sort
   keep the order they are written in, which is equally independent of
   the process.  Descending measured fewer work units than ascending on
   every benchmark workload. *)
let orient (a : Term.t) (b : Term.t) : int =
  match String.compare (Term.to_string b) (Term.to_string a) with
  | 0 -> Sort.compare (Term.sort a) (Term.sort b)
  | c -> c

let canon (p : Pred.t) : Pred.t * bool =
  match Pred.view p with
  | Pred.Atom (a, r, b) -> (
      match Pred.Tbl.find_opt canon_tbl p with
      | Some c -> c
      | None ->
          let c =
            match r with
            | Pred.Gt -> (Pred.make (Pred.Atom (b, Pred.Lt, a)), true)
            | Pred.Ge -> (Pred.make (Pred.Atom (b, Pred.Le, a)), true)
            | Pred.Ne ->
                let a, b = if orient a b <= 0 then (a, b) else (b, a) in
                (Pred.make (Pred.Atom (a, Pred.Eq, b)), false)
            | Pred.Eq ->
                let a, b = if orient a b <= 0 then (a, b) else (b, a) in
                (Pred.make (Pred.Atom (a, Pred.Eq, b)), true)
            | Pred.Lt | Pred.Le -> (p, true)
          in
          Pred.Tbl.add canon_tbl p c;
          c)
  | _ -> (p, true)

(** Orientation-normal form of a whole predicate: every atom replaced by
    its canonical form (negated verbatim when the polarity flips), with
    the connective structure kept as-is.  Two predicates with the same
    normal form are logically equivalent — they differ only in atom
    orientation ([x >= v] vs [v <= x], [a <> b] vs [b <> a]) — and,
    crucially, substitution commutes with normalization, so equal-form
    qualifier instances remain equal-form under every κ instantiation.
    The result is a {e key}, not a formula to solve or print: [Pred.make]
    is used verbatim so the smart constructors cannot undo the
    orientation.  Memoized per interned node. *)
let normal_tbl : Pred.t Pred.Tbl.t = Pred.Tbl.create 4096

let rec normalize (p : Pred.t) : Pred.t =
  match Pred.Tbl.find_opt normal_tbl p with
  | Some q -> q
  | None ->
      let q =
        match Pred.view p with
        | Pred.True | Pred.False | Pred.Bvar _ -> p
        | Pred.Atom _ ->
            let a, pos = canon p in
            if pos then a else Pred.make (Pred.Not a)
        | Pred.Not r -> Pred.make (Pred.Not (normalize r))
        | Pred.And ps -> Pred.make (Pred.And (List.map normalize ps))
        | Pred.Or ps -> Pred.make (Pred.Or (List.map normalize ps))
        | Pred.Imp (a, b) -> Pred.make (Pred.Imp (normalize a, normalize b))
        | Pred.Iff (a, b) -> Pred.make (Pred.Iff (normalize a, normalize b))
      in
      Pred.Tbl.add normal_tbl p q;
      q

let atom_var bld p =
  match Pred.Tbl.find_opt bld.atom_tbl p with
  | Some v -> v
  | None ->
      let v = bld.next in
      bld.next <- v + 1;
      Pred.Tbl.add bld.atom_tbl p v;
      bld.atom_list <- p :: bld.atom_list;
      v

(* Tseitin encoding.  [encode] returns a literal equivalent to the
   subformula; definitional clauses are emitted into [bld.cls]. *)

let fresh_var bld =
  let v = bld.next in
  bld.next <- v + 1;
  (* Keep [atom_list] aligned: Tseitin vars are not theory atoms, but we
     only allocate them after all atoms are interned (two-pass), so no
     placeholder is needed. *)
  v

let add bld c = bld.cls <- c :: bld.cls

let rec encode bld (p : Pred.t) : lit =
  match Pred.view p with
  | Pred.True ->
      let v = fresh_var bld in
      add bld [ lit_of v ];
      lit_of v
  | Pred.False ->
      let v = fresh_var bld in
      add bld [ lit_of v ];
      neg_lit (lit_of v)
  | Pred.Atom _ | Pred.Bvar _ ->
      let q, pos = canon p in
      let l = lit_of (atom_var bld q) in
      if pos then l else neg_lit l
  | Pred.Not q -> neg_lit (encode bld q)
  | Pred.And ps ->
      let ls = List.map (encode bld) ps in
      let v = lit_of (fresh_var bld) in
      (* v -> li  and  (l1 & ... & ln) -> v *)
      List.iter (fun l -> add bld [ neg_lit v; l ]) ls;
      add bld (v :: List.map neg_lit ls);
      v
  | Pred.Or ps ->
      let ls = List.map (encode bld) ps in
      let v = lit_of (fresh_var bld) in
      List.iter (fun l -> add bld [ v; neg_lit l ]) ls;
      add bld (neg_lit v :: ls);
      v
  | Pred.Imp (q, r) -> encode bld (Pred.make (Pred.Or [ Pred.make (Pred.Not q); r ]))
  | Pred.Iff (q, r) ->
      let a = encode bld q and b = encode bld r in
      let v = lit_of (fresh_var bld) in
      add bld [ neg_lit v; neg_lit a; b ];
      add bld [ neg_lit v; a; neg_lit b ];
      add bld [ v; a; b ];
      add bld [ v; neg_lit a; neg_lit b ];
      v

(** Collect every (canonical) atom of [p] into the builder, so that atom
    variables form a contiguous prefix. *)
let intern_atoms bld p =
  ignore
    (Pred.fold_atoms
       (fun () a ->
         let q, _ = canon a in
         ignore (atom_var bld q))
       () p)

let new_builder () : builder =
  { next = 0; atom_tbl = Pred.Tbl.create 32; atom_list = []; cls = [] }

let of_pred (p : Pred.t) : cnf =
  let bld = new_builder () in
  intern_atoms bld p;
  let natoms = bld.next in
  let root = encode bld p in
  {
    clauses = bld.cls;
    natoms;
    atoms = Array.of_list (List.rev bld.atom_list);
    root;
  }
