(** General simplex for linear rational arithmetic, after Dutertre & de
    Moura, "A Fast Linear-Arithmetic Solver for DPLL(T)" (CAV'06).

    This is the satisfiability core of the arithmetic theory solver: it
    decides conjunctions of constraints [e <= c], [e >= c], [e = c] over
    the rationals and produces a model on success.  The integer layer
    ({!Lia}) adds branch-and-bound on top.

    The implementation is the textbook one-shot variant: each constraint
    whose left-hand side is not a plain variable gets a slack variable
    [s = e]; constraints then become bounds on variables, and a pivoting
    loop repairs bound violations of basic variables.  Bland's rule
    (always choose the smallest eligible index) guarantees termination.

    Pivots are the work units the solver meters and models are the
    witnesses users see, so a faster tableau must not change either: it
    must pivot on the same variables and perform the same rational
    operations on each entry, so that it also overflows on the same
    inputs.  [test/simplex_reference.ml] is the map-based tableau this
    one is held to. *)

type op = Le | Ge | Eq

type cons = { exp : Linexp.t; op : op; rhs : Rat.t }

let cons exp op rhs = { exp; op; rhs }

exception Unsat

(* A tableau row: a basic variable as a linear form over nonbasic
   variables, with no constant term.  [vars] is strictly increasing and
   every coefficient is non-zero, so iterating a row visits variables in
   the order a [Linexp.t] map would. *)
type row = { vars : int array; coeffs : Rat.t array }

let empty_row = { vars = [||]; coeffs = [||] }

let row_of_linexp (le : Linexp.t) : row =
  let entries = List.rev (Linexp.fold (fun v c acc -> (v, c) :: acc) le []) in
  {
    vars = Array.of_list (List.map fst entries);
    coeffs = Array.of_list (List.map snd entries);
  }

(* Position of [v] in [r], or [-1]. *)
let find (r : row) v =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let u = r.vars.(mid) in
      if u = v then mid else if u < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length r.vars)

type t = {
  mutable nvars : int;
  lower : Rat.t option array;
  upper : Rat.t option array;
  beta : Rat.t array;
  basic : bool array;
  (* [rows.(i)] is meaningful iff [basic.(i)]. *)
  rows : row array;
}

(* Room for [cap] variables: the problem's plus one slack per
   constraint. *)
let create nvars cap =
  let cap = max cap 1 in
  {
    nvars;
    lower = Array.make cap None;
    upper = Array.make cap None;
    beta = Array.make cap Rat.zero;
    basic = Array.make cap false;
    rows = Array.make cap empty_row;
  }

let fresh_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  v

let set_lower t v c =
  match t.lower.(v) with
  | Some l when Rat.le c l -> ()
  | _ ->
      (match t.upper.(v) with Some u when Rat.lt u c -> raise Unsat | _ -> ());
      t.lower.(v) <- Some c

let set_upper t v c =
  match t.upper.(v) with
  | Some u when Rat.le u c -> ()
  | _ ->
      (match t.lower.(v) with Some l when Rat.lt c l -> raise Unsat | _ -> ());
      t.upper.(v) <- Some c

(* β of a basic variable: its row evaluated at the current nonbasic
   values, summed in variable order.  Terms whose variable is zero are
   skipped, and a zero partial sum is replaced rather than added to:
   [Rat.mul c Rat.zero] and [Rat.add x Rat.zero] give [Rat.zero] and
   [x] and never overflow, so the sum and its overflow behaviour are
   those of the full fold. *)
let eval t (r : row) =
  let acc = ref Rat.zero in
  for p = 0 to Array.length r.vars - 1 do
    let b = t.beta.(r.vars.(p)) in
    if not (Rat.is_zero b) then begin
      let term = Rat.mul r.coeffs.(p) b in
      acc := if Rat.is_zero !acc then term else Rat.add !acc term
    end
  done;
  !acc

let recompute_basic t =
  for v = 0 to t.nvars - 1 do
    if t.basic.(v) then t.beta.(v) <- eval t t.rows.(v)
  done

(* Pivots performed across all solves: the natural unit of simplex
   work, counted for the deterministic cost metering in {!Solver}. *)
let npivots = ref 0

(* The substitution of a pivot's new row [rj] into a row [r] whose entry
   at [q] is on the entering variable: [r] without that entry, plus its
   coefficient [a] times [rj].  Every product [a * c] is formed, and
   coefficients present in both rows are added (the row's first), as the
   map-based [Linexp.add r' (Linexp.scale a rj)] does. *)
let substitute (r : row) q (rj : row) : row =
  let a = r.coeffs.(q) in
  let scaled = Array.map (fun c -> Rat.mul a c) rj.coeffs in
  let n = Array.length r.vars and m = Array.length rj.vars in
  let vars = Array.make (n - 1 + m) 0 and coeffs = Array.make (n - 1 + m) Rat.zero in
  let k = ref 0 in
  let push v c =
    vars.(!k) <- v;
    coeffs.(!k) <- c;
    incr k
  in
  let rec merge i j =
    let i = if i = q then i + 1 else i in
    if i >= n then
      for j = j to m - 1 do
        push rj.vars.(j) scaled.(j)
      done
    else if j >= m then
      for i = i to n - 1 do
        if i <> q then push r.vars.(i) r.coeffs.(i)
      done
    else
      let u = r.vars.(i) and w = rj.vars.(j) in
      if u < w then (
        push u r.coeffs.(i);
        merge (i + 1) j)
      else if w < u then (
        push w scaled.(j);
        merge i (j + 1))
      else begin
        let c = Rat.add r.coeffs.(i) scaled.(j) in
        if not (Rat.is_zero c) then push u c;
        merge (i + 1) (j + 1)
      end
  in
  merge 0 0;
  { vars = Array.sub vars 0 !k; coeffs = Array.sub coeffs 0 !k }

(** [pivot t xi xj] makes [xj] basic in place of [xi].  [xi] must be basic
    and [xj] nonbasic with a non-zero coefficient in [xi]'s row.  Returns
    the other basic variables whose rows changed, in increasing order:
    exactly those whose rows contained [xj]. *)
let pivot t xi xj =
  incr npivots;
  let ri = t.rows.(xi) in
  let p = find ri xj in
  let aij = ri.coeffs.(p) in
  assert (not (Rat.is_zero aij));
  (* xi = aij*xj + rest   ==>   xj = (xi - rest) / aij *)
  let inv = Rat.inv aij in
  let ninv = Rat.neg inv in
  let n = Array.length ri.vars in
  let vars = Array.make n 0 and coeffs = Array.make n Rat.zero in
  (* [xi] is basic, so it is in no row; it goes where it sorts. *)
  let k = ref 0 and placed = ref false in
  for q = 0 to n - 1 do
    if q <> p then begin
      let v = ri.vars.(q) in
      if (not !placed) && xi < v then begin
        vars.(!k) <- xi;
        coeffs.(!k) <- inv;
        incr k;
        placed := true
      end;
      vars.(!k) <- v;
      coeffs.(!k) <- Rat.mul ninv ri.coeffs.(q);
      incr k
    end
  done;
  if not !placed then begin
    vars.(!k) <- xi;
    coeffs.(!k) <- inv
  end;
  let row_j = { vars; coeffs } in
  t.basic.(xi) <- false;
  t.rows.(xi) <- empty_row;
  t.basic.(xj) <- true;
  t.rows.(xj) <- row_j;
  (* Substitute xj's new definition into every other row containing xj. *)
  let touched = ref [] in
  for k = t.nvars - 1 downto 0 do
    if t.basic.(k) && k <> xj then begin
      let rk = t.rows.(k) in
      let q = find rk xj in
      if q >= 0 then begin
        t.rows.(k) <- substitute rk q row_j;
        touched := k :: !touched
      end
    end
  done;
  !touched

(** Make the (violated) basic variable [xi] take value [v] by pivoting it
    against a suitable nonbasic variable.  Returns [false] if no pivot is
    possible, i.e. the system is infeasible. *)
let repair t xi v =
  let row = t.rows.(xi) in
  (* Bland's rule: smallest eligible nonbasic index.  Every entry's
     eligibility is decided, as the map-based tableau did: its bound
     comparisons can overflow. *)
  let increase = Rat.lt t.beta.(xi) v in
  let can_increase xj =
    match t.upper.(xj) with Some u -> Rat.lt t.beta.(xj) u | None -> true
  in
  let can_decrease xj =
    match t.lower.(xj) with Some l -> Rat.lt l t.beta.(xj) | None -> true
  in
  let best = ref (-1) in
  for q = 0 to Array.length row.vars - 1 do
    let xj = row.vars.(q) and a = row.coeffs.(q) in
    let eligible =
      if increase then
        (Rat.sign a > 0 && can_increase xj) || (Rat.sign a < 0 && can_decrease xj)
      else
        (Rat.sign a > 0 && can_decrease xj) || (Rat.sign a < 0 && can_increase xj)
    in
    if eligible && !best < 0 then best := q
  done;
  if !best < 0 then false
  else begin
    let xj = row.vars.(!best) and aij = row.coeffs.(!best) in
    let theta = Rat.div (Rat.sub v t.beta.(xi)) aij in
    t.beta.(xi) <- v;
    t.beta.(xj) <- Rat.add t.beta.(xj) theta;
    (* Only the rows that contained xj changed; every other basic row
       would recompute its value from the same entries and the same
       nonbasic values. *)
    List.iter (fun k -> t.beta.(k) <- eval t t.rows.(k)) (pivot t xi xj);
    true
  end

let check_loop t =
  let continue_ = ref true in
  let sat = ref true in
  while !continue_ do
    (* Find the smallest basic variable violating one of its bounds. *)
    let viol = ref None in
    (try
       for v = 0 to t.nvars - 1 do
         if t.basic.(v) then begin
           (match t.lower.(v) with
           | Some l when Rat.lt t.beta.(v) l ->
               viol := Some (v, l);
               raise Exit
           | _ -> ());
           match t.upper.(v) with
           | Some u when Rat.lt u t.beta.(v) ->
               viol := Some (v, u);
               raise Exit
           | _ -> ()
         end
       done
     with Exit -> ());
    match !viol with
    | None -> continue_ := false
    | Some (xi, target) ->
        if not (repair t xi target) then begin
          sat := false;
          continue_ := false
        end
  done;
  !sat

(** Decide a conjunction of constraints over variables [0 .. nvars-1].
    On success returns a model assigning a rational to each variable. *)
let solve ~nvars (cs : cons list) : [ `Sat of Rat.t array | `Unsat ] =
  let t = create nvars (nvars + List.length cs) in
  try
    (* Install each constraint as a bound, introducing slacks as needed. *)
    List.iter
      (fun { exp; op; rhs } ->
        let rhs = Rat.sub rhs (Linexp.constant exp) in
        let exp = Linexp.sub exp (Linexp.const (Linexp.constant exp)) in
        let v =
          match Linexp.choose_var exp with
          | None ->
              (* Constant constraint: check immediately. *)
              let ok =
                match op with
                | Le -> Rat.le Rat.zero rhs
                | Ge -> Rat.le rhs Rat.zero
                | Eq -> Rat.is_zero rhs
              in
              if not ok then raise Unsat;
              -1
          | Some (v0, c0) ->
              if Rat.equal c0 Rat.one && Linexp.compare exp (Linexp.var v0) = 0
              then v0
              else begin
                let s = fresh_var t in
                t.basic.(s) <- true;
                t.rows.(s) <- row_of_linexp exp;
                s
              end
        in
        if v >= 0 then begin
          (match op with
          | Le -> set_upper t v rhs
          | Ge -> set_lower t v rhs
          | Eq ->
              set_lower t v rhs;
              set_upper t v rhs)
        end)
      cs;
    (* Initialize nonbasic values within their bounds. *)
    for v = 0 to t.nvars - 1 do
      if not t.basic.(v) then
        t.beta.(v) <-
          (match (t.lower.(v), t.upper.(v)) with
          | Some l, _ -> l
          | None, Some u -> u
          | None, None -> Rat.zero)
    done;
    recompute_basic t;
    if check_loop t then `Sat (Array.sub t.beta 0 nvars) else `Unsat
  with Unsat -> `Unsat
