(* The simplex that lib/smt/simplex.ml replaced, kept as the reference
   its differential tests hold it to: tableau rows are persistent
   [Linexp.t] maps, and every pivot re-evaluates every basic row.  It
   installs a conjunction as the sparse tableau does: a constraint over
   one variable is a bound on it, and the constraints over one oriented
   form of two or more variables share a slack, numbered in the order
   the forms first appear (found here by a scan, not a hash table).
   The sparse-array simplex must make the same pivots, return the same
   models and explanations and raise [Rat.Overflow] on the same
   inputs. *)

open Liquid_smt

type op = Simplex.op = Le | Ge | Eq
type cons = Simplex.cons = { exp : Linexp.t; op : op; rhs : Rat.t }

exception Conflict of int list

type t = {
  mutable nvars : int;
  mutable lower : Rat.t option array;
  mutable upper : Rat.t option array;
  (* The position of the constraint that set each bound. *)
  mutable lower_src : int array;
  mutable upper_src : int array;
  mutable beta : Rat.t array;
  mutable basic : bool array;
  (* [rows.(i)] is meaningful iff [basic.(i)]; it expresses variable [i] as a
     linear form over nonbasic variables (no constant term). *)
  mutable rows : Linexp.t array;
}

let create nvars =
  {
    nvars;
    lower = Array.make (max nvars 1) None;
    upper = Array.make (max nvars 1) None;
    lower_src = Array.make (max nvars 1) (-1);
    upper_src = Array.make (max nvars 1) (-1);
    beta = Array.make (max nvars 1) Rat.zero;
    basic = Array.make (max nvars 1) false;
    rows = Array.make (max nvars 1) Linexp.zero;
  }

let grow t n =
  let cap = Array.length t.lower in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.lower <- extend t.lower None;
    t.upper <- extend t.upper None;
    t.lower_src <- extend t.lower_src (-1);
    t.upper_src <- extend t.upper_src (-1);
    t.beta <- extend t.beta Rat.zero;
    t.basic <- extend t.basic false;
    t.rows <- extend t.rows Linexp.zero
  end

let fresh_var t =
  let v = t.nvars in
  grow t (v + 1);
  t.nvars <- v + 1;
  v

let set_lower t v c k =
  match t.lower.(v) with
  | Some l when Rat.le c l -> ()
  | _ ->
      (match t.upper.(v) with
      | Some u when Rat.lt u c -> raise (Conflict [ t.upper_src.(v); k ])
      | _ -> ());
      t.lower.(v) <- Some c;
      t.lower_src.(v) <- k

let set_upper t v c k =
  match t.upper.(v) with
  | Some u when Rat.le u c -> ()
  | _ ->
      (match t.lower.(v) with
      | Some l when Rat.lt c l -> raise (Conflict [ t.lower_src.(v); k ])
      | _ -> ());
      t.upper.(v) <- Some c;
      t.upper_src.(v) <- k

(* β update helpers ------------------------------------------------- *)

let recompute_basic t =
  for v = 0 to t.nvars - 1 do
    if t.basic.(v) then
      t.beta.(v) <- Linexp.eval (fun u -> t.beta.(u)) t.rows.(v)
  done

(* Pivots performed across all solves. *)
let npivots = ref 0

(** [pivot t xi xj] makes [xj] basic in place of [xi].  [xi] must be basic
    and [xj] nonbasic with a non-zero coefficient in [xi]'s row. *)
let pivot t xi xj =
  incr npivots;
  let row_i = t.rows.(xi) in
  let aij, rest = Linexp.remove xj row_i in
  assert (not (Rat.is_zero aij));
  (* xi = aij*xj + rest   ==>   xj = (xi - rest) / aij *)
  let inv = Rat.inv aij in
  let row_j =
    Linexp.add (Linexp.var ~coeff:inv xi) (Linexp.scale (Rat.neg inv) rest)
  in
  t.basic.(xi) <- false;
  t.rows.(xi) <- Linexp.zero;
  t.basic.(xj) <- true;
  t.rows.(xj) <- row_j;
  (* Substitute xj's new definition into every other row. *)
  for k = 0 to t.nvars - 1 do
    if t.basic.(k) && k <> xj then begin
      let akj, restk = Linexp.remove xj t.rows.(k) in
      if not (Rat.is_zero akj) then
        t.rows.(k) <- Linexp.add restk (Linexp.scale akj row_j)
    end
  done

(** Make the (violated) basic variable [xi] take value [v] by pivoting it
    against a suitable nonbasic variable.  Returns [false] if no pivot is
    possible, i.e. the system is infeasible. *)
let repair t xi v =
  let row = t.rows.(xi) in
  let candidate =
    (* Bland's rule: smallest eligible nonbasic index. *)
    let increase = Rat.lt t.beta.(xi) v in
    let can_increase xj =
      match t.upper.(xj) with Some u -> Rat.lt t.beta.(xj) u | None -> true
    in
    let can_decrease xj =
      match t.lower.(xj) with Some l -> Rat.lt l t.beta.(xj) | None -> true
    in
    let best = ref None in
    Linexp.iter
      (fun xj a ->
        let eligible =
          if increase then
            (Rat.sign a > 0 && can_increase xj)
            || (Rat.sign a < 0 && can_decrease xj)
          else
            (Rat.sign a > 0 && can_decrease xj)
            || (Rat.sign a < 0 && can_increase xj)
        in
        if eligible then
          match !best with
          | Some (b, _) when b <= xj -> ()
          | _ -> best := Some (xj, a))
      row;
    !best
  in
  match candidate with
  | None -> false
  | Some (xj, aij) ->
      let theta = Rat.div (Rat.sub v t.beta.(xi)) aij in
      t.beta.(xi) <- v;
      t.beta.(xj) <- Rat.add t.beta.(xj) theta;
      pivot t xi xj;
      (* Update the values of all (other) basic variables. *)
      for k = 0 to t.nvars - 1 do
        if t.basic.(k) && k <> xj then
          t.beta.(k) <- Linexp.eval (fun u -> t.beta.(u)) t.rows.(k)
      done;
      true

(* The violated bound of [xi] and the bound each variable of its row
   sits at. *)
let explain t xi below =
  Linexp.fold
    (fun xj a srcs ->
      (if Rat.sign a > 0 = below then t.upper_src.(xj) else t.lower_src.(xj)) :: srcs)
    t.rows.(xi)
    [ (if below then t.lower_src.(xi) else t.upper_src.(xi)) ]

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

let flip = function Le -> Ge | Ge -> Le | Eq -> Eq

let set_bound t v op c k =
  match op with
  | Le -> set_upper t v c k
  | Ge -> set_lower t v c k
  | Eq ->
      set_lower t v c k;
      set_upper t v c k

(** Decide a conjunction of constraints over variables [0 .. nvars-1].
    On success returns a model assigning a rational to each variable; on
    failure, the positions of constraints that are infeasible together. *)
let solve ~nvars (cs : cons list) : [ `Sat of Rat.t array | `Unsat of int list ] =
  let t = create nvars in
  (* Each oriented form's slack, in the order the forms appear. *)
  let slacks = ref [] in
  let slack exp =
    match List.find_opt (fun (e, _) -> Linexp.equal e exp) !slacks with
    | Some (_, s) -> s
    | None ->
        let s = fresh_var t in
        t.basic.(s) <- true;
        t.rows.(s) <- exp;
        slacks := (exp, s) :: !slacks;
        s
  in
  try
    List.iteri
      (fun k { exp; op; rhs } ->
        let rhs = Rat.sub rhs (Linexp.constant exp) in
        let exp = Linexp.sub exp (Linexp.const (Linexp.constant exp)) in
        match Linexp.choose_var exp with
        | None ->
            (* Constant constraint: check immediately. *)
            let ok =
              match op with
              | Le -> Rat.le Rat.zero rhs
              | Ge -> Rat.le rhs Rat.zero
              | Eq -> Rat.is_zero rhs
            in
            if not ok then raise (Conflict [ k ])
        | Some (v0, c0) when Linexp.cardinal exp = 1 ->
            (* A bound on [v0]: divide by its coefficient. *)
            set_bound t v0 (if Rat.sign c0 < 0 then flip op else op) (Rat.div rhs c0) k
        | Some (_, c0) ->
            (* A bound on the slack of the form, first coefficient
               positive. *)
            if Rat.sign c0 > 0 then set_bound t (slack exp) op rhs k
            else set_bound t (slack (Linexp.neg exp)) (flip op) (Rat.neg rhs) k)
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
    check_loop t;
    let model = Array.make nvars Rat.zero in
    for v = 0 to nvars - 1 do
      model.(v) <- t.beta.(v)
    done;
    `Sat model
  with Conflict ks -> `Unsat (List.sort_uniq Int.compare ks)
