(** General simplex for linear rational arithmetic, after Dutertre & de
    Moura, "A Fast Linear-Arithmetic Solver for DPLL(T)" (CAV'06).

    This is the satisfiability core of the arithmetic theory solver: it
    decides conjunctions of constraints [e <= c], [e >= c], [e = c] over
    the rationals and produces a model on success.  The integer layer
    ({!Lia}) adds branch-and-bound on top.

    One tableau serves both uses.  It is incremental: a constraint can be
    added after the tableau has been repaired, and {!copy} branches it.
    A constraint over one variable becomes a bound on that variable, its
    right-hand side divided by the coefficient; a bound that excludes a
    nonbasic variable's value moves the variable to it and updates the
    basic values.  The constraints over two or more variables share one
    slack variable [s = e] per linear form [e], oriented so that its
    first coefficient is positive, and become bounds on [s]; a new
    form's row is written over the nonbasic variables of the moment.
    {!check} repairs bound violations of basic variables by pivoting.
    Bland's rule (always choose the smallest eligible index) guarantees
    termination.

    Problem variables, the caller's, are numbered apart from the
    tableau's, and allocated on demand: a problem variable gets its
    column the first time a constraint or {!ensure} names it, after
    every lower one.  A variable allocated since the last check is
    valued at that check: a nonbasic one at its lower bound, else at its
    upper bound, else at zero, and a basic one by its row.

    Each bound remembers the constraint that set it, by a source number
    the caller chooses, so an infeasible conjunction comes with its
    explanation: the two bounds that clash at installation, or, when no
    pivot can repair a basic variable, its violated bound and the bounds
    its row's nonbasic variables sit at.  An infeasible tableau keeps its
    explanation and ignores later constraints.

    {!solve} is the one-shot use: problem variables first, then slacks,
    every variable valued at the one check.  [test/simplex_reference.ml]
    is the map-based tableau, installing the same way, that it is held
    to pivot for pivot.  A column index keeps, for each variable, the
    basic rows that mention it, so a pivot substitutes into those rows,
    in increasing order, without searching the others.  It changes no
    pivot, model or overflow. *)

type op = Le | Ge | Eq

type cons = { exp : Linexp.t; op : op; rhs : Rat.t }

let cons exp op rhs = { exp; op; rhs }

(* An infeasible conjunction, with the sources of constraints that are
   infeasible together. *)
exception Conflict of int list

(* A tableau row: a basic variable as a linear form over nonbasic
   variables, with no constant term.  [vars] is strictly increasing and
   every coefficient is non-zero, so iterating a row visits variables in
   the order a [Linexp.t] map would. *)
type row = { vars : int array; coeffs : Rat.t array }

let empty_row = { vars = [||]; coeffs = [||] }

(* [le] has no constant term here. *)
let row_of_linexp (le : Linexp.t) : row =
  let n = Linexp.cardinal le in
  let vars = Array.make n 0 and coeffs = Array.make n Rat.zero in
  let (_ : int) =
    Linexp.fold
      (fun v c k ->
        vars.(k) <- v;
        coeffs.(k) <- c;
        k + 1)
      le 0
  in
  { vars; coeffs }

(* Position of [v] in the increasing [vars.(lo .. hi-1)], or [-1]. *)
let rec find vars v lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let u = vars.(mid) in
    if u = v then mid else if u < v then find vars v (mid + 1) hi else find vars v lo mid

(* The column index stores, for each variable, the set of basic
   variables whose rows mention it, as a bitset of [words] words of
   [bits] bits each, so that its members come out in increasing order. *)
let bits = 62

module Linexp_tbl = Hashtbl.Make (Linexp)

type t = {
  mutable nvars : int;
  (* Variables below [ninit] have values; the others are valued at the
     next check. *)
  mutable ninit : int;
  mutable lower : Rat.t option array;
  mutable upper : Rat.t option array;
  (* The source of the constraint that set each bound. *)
  mutable lower_src : int array;
  mutable upper_src : int array;
  mutable beta : Rat.t array;
  mutable basic : bool array;
  (* [rows.(i)] is meaningful iff [basic.(i)]. *)
  mutable rows : row array;
  (* The column index: [cols.(v * words + w)] holds bits [w * bits ..]
     of the set of basic rows containing [v].  Built at the first pivot
     ([words = 0] until then, and again once the tableau grows), since
     most solves make none. *)
  mutable cols : int array;
  mutable words : int;
  (* Work buffers, shared by copies: substitution output, copied out
     once per row, and the rows the last pivot substituted into,
     increasing. *)
  mutable buf_vars : int array;
  mutable buf_coeffs : Rat.t array;
  mutable touched : int array;
  mutable ntouched : int;
  (* The column of each problem variable below [nprob]. *)
  mutable col_of : int array;
  mutable nprob : int;
  (* The slack of each oriented form over two or more problem
     variables. *)
  forms : int Linexp_tbl.t;
  (* The explanation of an infeasible tableau, increasing. *)
  mutable conflict : int list option;
}

(* Room for [cap] variables before the tableau grows. *)
let create_cap cap =
  let cap = max cap 1 in
  {
    nvars = 0;
    ninit = 0;
    lower = Array.make cap None;
    upper = Array.make cap None;
    lower_src = Array.make cap (-1);
    upper_src = Array.make cap (-1);
    beta = Array.make cap Rat.zero;
    basic = Array.make cap false;
    rows = Array.make cap empty_row;
    cols = [||];
    words = 0;
    buf_vars = Array.make cap 0;
    buf_coeffs = Array.make cap Rat.zero;
    touched = Array.make cap 0;
    ntouched = 0;
    col_of = Array.make cap 0;
    nprob = 0;
    forms = Linexp_tbl.create 8;
    conflict = None;
  }

let create () = create_cap 16

let copy t =
  {
    t with
    lower = Array.copy t.lower;
    upper = Array.copy t.upper;
    lower_src = Array.copy t.lower_src;
    upper_src = Array.copy t.upper_src;
    beta = Array.copy t.beta;
    basic = Array.copy t.basic;
    rows = Array.copy t.rows;
    cols = Array.copy t.cols;
    col_of = Array.copy t.col_of;
    forms = Linexp_tbl.copy t.forms;
  }

let extend a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Double the room for variables; the column index is rebuilt at the
   next pivot. *)
let grow t =
  let cap = 2 * Array.length t.basic in
  t.lower <- extend t.lower cap None;
  t.upper <- extend t.upper cap None;
  t.lower_src <- extend t.lower_src cap (-1);
  t.upper_src <- extend t.upper_src cap (-1);
  t.beta <- extend t.beta cap Rat.zero;
  t.basic <- extend t.basic cap false;
  t.rows <- extend t.rows cap empty_row;
  t.cols <- [||];
  t.words <- 0;
  t.buf_vars <- Array.make cap 0;
  t.buf_coeffs <- Array.make cap Rat.zero;
  t.touched <- Array.make cap 0

let fresh_var t =
  let v = t.nvars in
  if v = Array.length t.basic then grow t;
  t.nvars <- v + 1;
  v

(* Allocate the problem variables below [n] that have no column yet, in
   increasing order. *)
let ensure t n =
  if n > Array.length t.col_of then t.col_of <- extend t.col_of (max n (2 * t.nprob)) 0;
  while t.nprob < n do
    t.col_of.(t.nprob) <- fresh_var t;
    t.nprob <- t.nprob + 1
  done

let column t p =
  ensure t (p + 1);
  t.col_of.(p)

let value t p = if p < t.nprob then t.beta.(t.col_of.(p)) else Rat.zero

let refute t ks = if t.conflict = None then t.conflict <- Some (List.sort_uniq Int.compare ks)

(* -- The column index ------------------------------------------------ *)

let col_add t v k =
  let i = (v * t.words) + (k / bits) in
  t.cols.(i) <- t.cols.(i) lor (1 lsl (k mod bits))

let col_remove t v k =
  let i = (v * t.words) + (k / bits) in
  t.cols.(i) <- t.cols.(i) land lnot (1 lsl (k mod bits))

let build_cols t =
  let cap = Array.length t.basic in
  t.words <- (cap + bits - 1) / bits;
  t.cols <- Array.make (cap * t.words) 0;
  for k = 0 to t.nvars - 1 do
    if t.basic.(k) then Array.iter (fun v -> col_add t v k) t.rows.(k).vars
  done

(* Index of the single set bit of [b], a positive power of two. *)
let bit_index b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then (n := 32; b := !b lsr 32);
  if !b land 0xFFFF = 0 then (n := !n + 16; b := !b lsr 16);
  if !b land 0xFF = 0 then (n := !n + 8; b := !b lsr 8);
  if !b land 0xF = 0 then (n := !n + 4; b := !b lsr 4);
  if !b land 0x3 = 0 then (n := !n + 2; b := !b lsr 2);
  if !b land 0x1 = 0 then n := !n + 1;
  !n

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

(* Value the variables allocated since the last check: a nonbasic one
   at its lower bound, else its upper bound, else zero; then a basic one
   by its row, which only mentions nonbasic variables. *)
let init_fresh t =
  for v = t.ninit to t.nvars - 1 do
    if not t.basic.(v) then
      t.beta.(v) <-
        (match (t.lower.(v), t.upper.(v)) with
        | Some l, _ -> l
        | None, Some u -> u
        | None, None -> Rat.zero)
  done;
  for v = t.ninit to t.nvars - 1 do
    if t.basic.(v) then t.beta.(v) <- eval t t.rows.(v)
  done;
  t.ninit <- t.nvars

(* Pivots performed across all solves: the natural unit of simplex
   work, counted for the deterministic cost metering in {!Solver}. *)
let npivots = ref 0

(* The substitution of a pivot's new row [rj] into basic [k]'s row [r],
   whose entry at [q] is on the entering variable: [r] without that
   entry, plus its coefficient [a] times [rj].  Every product [a * c] is
   formed, and coefficients present in both rows are added (the row's
   first), as the map-based [Linexp.add r' (Linexp.scale a rj)] does.
   Variables the row gains or loses are entered in the column index;
   the entering variable's own column is the caller's. *)
let substitute t k (r : row) q (rj : row) =
  let a = r.coeffs.(q) in
  let n = Array.length r.vars and m = Array.length rj.vars in
  let out = ref 0 and i = ref 0 and j = ref 0 in
  while !i < n || !j < m do
    if !i = q then incr i
    else if !j >= m || (!i < n && r.vars.(!i) < rj.vars.(!j)) then begin
      t.buf_vars.(!out) <- r.vars.(!i);
      t.buf_coeffs.(!out) <- r.coeffs.(!i);
      incr out;
      incr i
    end
    else begin
      let w = rj.vars.(!j) in
      let c = Rat.mul a rj.coeffs.(!j) in
      if !i < n && r.vars.(!i) = w then begin
        let c = Rat.add r.coeffs.(!i) c in
        if Rat.is_zero c then col_remove t w k
        else begin
          t.buf_vars.(!out) <- w;
          t.buf_coeffs.(!out) <- c;
          incr out
        end;
        incr i
      end
      else begin
        t.buf_vars.(!out) <- w;
        t.buf_coeffs.(!out) <- c;
        incr out;
        col_add t w k
      end;
      incr j
    end
  done;
  t.rows.(k) <-
    { vars = Array.sub t.buf_vars 0 !out; coeffs = Array.sub t.buf_coeffs 0 !out }

(** [pivot t xi xj] makes [xj] basic in place of [xi].  [xi] must be basic
    and [xj] nonbasic with a non-zero coefficient in [xi]'s row.  Leaves
    in [t.touched] the other basic variables whose rows changed, in
    increasing order: exactly those whose rows contained [xj]. *)
let pivot t xi xj =
  incr npivots;
  if t.words = 0 then build_cols t;
  let ri = t.rows.(xi) in
  let n = Array.length ri.vars in
  let p = find ri.vars xj 0 n in
  let aij = ri.coeffs.(p) in
  assert (not (Rat.is_zero aij));
  (* xi = aij*xj + rest   ==>   xj = (xi - rest) / aij *)
  let inv = Rat.inv aij in
  let ninv = Rat.neg inv in
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
      incr k;
      col_remove t v xi;
      col_add t v xj
    end
  done;
  if not !placed then begin
    vars.(!k) <- xi;
    coeffs.(!k) <- inv
  end;
  col_add t xi xj;
  col_remove t xj xi;
  let row_j = { vars; coeffs } in
  t.basic.(xi) <- false;
  t.rows.(xi) <- empty_row;
  t.basic.(xj) <- true;
  t.rows.(xj) <- row_j;
  (* Substitute xj's new definition into every other row containing xj,
     in increasing order; afterwards no row contains it. *)
  t.ntouched <- 0;
  let base = xj * t.words in
  for w = 0 to t.words - 1 do
    let set = ref t.cols.(base + w) in
    while !set <> 0 do
      let low = !set land - !set in
      set := !set lxor low;
      let k = (w * bits) + bit_index low in
      let rk = t.rows.(k) in
      substitute t k rk (find rk.vars xj 0 (Array.length rk.vars)) row_j;
      t.touched.(t.ntouched) <- k;
      t.ntouched <- t.ntouched + 1
    done;
    t.cols.(base + w) <- 0
  done

(* Bland's eligibility tests of [repair]. *)
let can_increase t xj =
  match t.upper.(xj) with Some u -> Rat.lt t.beta.(xj) u | None -> true

let can_decrease t xj =
  match t.lower.(xj) with Some l -> Rat.lt l t.beta.(xj) | None -> true

(** Make the (violated) basic variable [xi] take value [v] by pivoting it
    against a suitable nonbasic variable.  Returns [false] if no pivot is
    possible, i.e. the system is infeasible. *)
let repair t xi v =
  let row = t.rows.(xi) in
  (* Bland's rule: smallest eligible nonbasic index.  Every entry's
     eligibility is decided, as the map-based tableau did: its bound
     comparisons can overflow. *)
  let increase = Rat.lt t.beta.(xi) v in
  let best = ref (-1) in
  for q = 0 to Array.length row.vars - 1 do
    let xj = row.vars.(q) and a = row.coeffs.(q) in
    let eligible =
      if increase then
        (Rat.sign a > 0 && can_increase t xj) || (Rat.sign a < 0 && can_decrease t xj)
      else
        (Rat.sign a > 0 && can_decrease t xj) || (Rat.sign a < 0 && can_increase t xj)
    in
    if eligible && !best < 0 then best := q
  done;
  if !best < 0 then false
  else begin
    let xj = row.vars.(!best) and aij = row.coeffs.(!best) in
    let theta = Rat.div (Rat.sub v t.beta.(xi)) aij in
    t.beta.(xi) <- v;
    t.beta.(xj) <- Rat.add t.beta.(xj) theta;
    pivot t xi xj;
    (* Only the rows that contained xj changed; every other basic row
       would recompute its value from the same entries and the same
       nonbasic values. *)
    for i = 0 to t.ntouched - 1 do
      let k = t.touched.(i) in
      t.beta.(k) <- eval t t.rows.(k)
    done;
    true
  end

(* Why basic [xi] cannot be repaired towards its violated bound (its
   lower one if [below]): that bound, and for each variable of its row
   the bound it sits at, the one that made it ineligible.  Over those
   bounds the row cannot reach the violated one. *)
let explain t xi below =
  let row = t.rows.(xi) in
  let srcs = ref [ (if below then t.lower_src.(xi) else t.upper_src.(xi)) ] in
  for q = 0 to Array.length row.vars - 1 do
    let xj = row.vars.(q) in
    let at_upper = Rat.sign row.coeffs.(q) > 0 = below in
    srcs := (if at_upper then t.upper_src.(xj) else t.lower_src.(xj)) :: !srcs
  done;
  !srcs

(* Repair violated basic variables until none is left; raises
   [Conflict] when one cannot be repaired. *)
let check_loop t =
  let continue_ = ref true in
  while !continue_ do
    (* Find the smallest basic variable violating one of its bounds. *)
    let viol = ref None in
    (try
       for v = 0 to t.nvars - 1 do
         if t.basic.(v) then begin
           (match t.lower.(v) with
           | Some l when Rat.lt t.beta.(v) l ->
               viol := Some (v, l, true);
               raise Exit
           | _ -> ());
           match t.upper.(v) with
           | Some u when Rat.lt u t.beta.(v) ->
               viol := Some (v, u, false);
               raise Exit
           | _ -> ()
         end
       done
     with Exit -> ());
    match !viol with
    | None -> continue_ := false
    | Some (xi, target, below) ->
        if not (repair t xi target) then raise (Conflict (explain t xi below))
  done

(* -- Adding constraints ------------------------------------------------ *)

(* Move the valued nonbasic [v] to [x], and every valued basic variable
   whose row mentions it along. *)
let move t v x =
  let delta = Rat.sub x t.beta.(v) in
  t.beta.(v) <- x;
  let shift k =
    if k < t.ninit then begin
      let r = t.rows.(k) in
      let q = find r.vars v 0 (Array.length r.vars) in
      if q >= 0 then t.beta.(k) <- Rat.add t.beta.(k) (Rat.mul r.coeffs.(q) delta)
    end
  in
  if t.words > 0 then begin
    let base = v * t.words in
    for w = 0 to t.words - 1 do
      let set = ref t.cols.(base + w) in
      while !set <> 0 do
        let low = !set land - !set in
        set := !set lxor low;
        shift ((w * bits) + bit_index low)
      done
    done
  end
  else
    for k = 0 to t.ninit - 1 do
      if t.basic.(k) then shift k
    done

(* Bound [v] by constraint [k]; a bound no tighter than the one [v]
   has keeps the older one.  A valued nonbasic variable the new bound
   excludes moves to it. *)
let set_lower t v c k =
  match t.lower.(v) with
  | Some l when Rat.le c l -> ()
  | _ ->
      (match t.upper.(v) with
      | Some u when Rat.lt u c -> raise (Conflict [ t.upper_src.(v); k ])
      | _ -> ());
      t.lower.(v) <- Some c;
      t.lower_src.(v) <- k;
      if v < t.ninit && (not t.basic.(v)) && Rat.lt t.beta.(v) c then move t v c

let set_upper t v c k =
  match t.upper.(v) with
  | Some u when Rat.le u c -> ()
  | _ ->
      (match t.lower.(v) with
      | Some l when Rat.lt c l -> raise (Conflict [ t.lower_src.(v); k ])
      | _ -> ());
      t.upper.(v) <- Some c;
      t.upper_src.(v) <- k;
      if v < t.ninit && (not t.basic.(v)) && Rat.lt c t.beta.(v) then move t v c

let flip = function Le -> Ge | Ge -> Le | Eq -> Eq

let set_bound t v op c k =
  match op with
  | Le -> set_upper t v c k
  | Ge -> set_lower t v c k
  | Eq ->
      set_lower t v c k;
      set_upper t v c k

(* The row of a new slack for [exp], an oriented form over problem
   variables: each term over a nonbasic column as it is, each term over
   a basic one replaced by that variable's row. *)
let new_row t (exp : Linexp.t) : row =
  let le =
    Linexp.fold
      (fun p c acc ->
        let v = column t p in
        if t.basic.(v) then begin
          let r = t.rows.(v) in
          let acc = ref acc in
          for q = 0 to Array.length r.vars - 1 do
            acc := Linexp.add_term r.vars.(q) (Rat.mul c r.coeffs.(q)) !acc
          done;
          !acc
        end
        else Linexp.add_term v c acc)
      exp Linexp.zero
  in
  row_of_linexp le

(* The slack of the oriented form [exp], made basic with its row the
   first time the form is met. *)
let slack t exp =
  match Linexp_tbl.find_opt t.forms exp with
  | Some s -> s
  | None ->
      let row = new_row t exp in
      let s = fresh_var t in
      Linexp_tbl.add t.forms exp s;
      t.basic.(s) <- true;
      t.rows.(s) <- row;
      if t.words > 0 then Array.iter (fun v -> col_add t v s) row.vars;
      s

let install t k { exp; op; rhs } =
  let rhs, exp =
    let c = Linexp.constant exp in
    if Rat.is_zero c then (rhs, exp) else (Rat.sub rhs c, Linexp.sub exp (Linexp.const c))
  in
  match Linexp.choose_var exp with
  | None ->
      let holds =
        match op with
        | Le -> Rat.le Rat.zero rhs
        | Ge -> Rat.le rhs Rat.zero
        | Eq -> Rat.is_zero rhs
      in
      if not holds then raise (Conflict [ k ])
  | Some (p, c) when Linexp.cardinal exp = 1 ->
      let v = column t p in
      if Rat.equal c Rat.one then set_bound t v op rhs k
      else set_bound t v (if Rat.sign c < 0 then flip op else op) (Rat.div rhs c) k
  | Some (_, c) ->
      let exp, op, rhs =
        if Rat.sign c > 0 then (exp, op, rhs) else (Linexp.neg exp, flip op, Rat.neg rhs)
      in
      set_bound t (slack t exp) op rhs k

(** Add constraint [c] with source [k]; a no-op on an infeasible
    tableau. *)
let add t k c =
  if t.conflict = None then try install t k c with Conflict ks -> refute t ks

(** Repair the tableau: value the variables allocated since the last
    check, then pivot until no basic variable violates a bound. *)
let check t : [ `Sat | `Unsat of int list ] =
  match t.conflict with
  | Some ks -> `Unsat ks
  | None -> (
      try
        init_fresh t;
        check_loop t;
        `Sat
      with Conflict ks ->
        refute t ks;
        `Unsat (Option.get t.conflict))

(** Decide a conjunction of constraints over variables [0 .. nvars-1],
    the sources of the constraints being their positions.  On success
    returns a model assigning a rational to each variable; on failure,
    the positions of constraints that are infeasible together. *)
let solve ~nvars (cs : cons list) : [ `Sat of Rat.t array | `Unsat of int list ] =
  let t = create_cap (nvars + List.length cs) in
  ensure t nvars;
  List.iteri (add t) cs;
  match check t with
  | `Sat -> `Sat (Array.init nvars (value t))
  | `Unsat ks -> `Unsat ks
