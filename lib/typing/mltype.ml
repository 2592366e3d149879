(** ML types and type schemes for NanoML.

    This is the first phase of the paper's three-phase inference: plain
    Hindley–Milner types computed by Algorithm W.  Unification variables
    use the classic mutable [Link]/[Unbound] representation with Rémy-style
    levels for efficient generalization. *)

type t =
  | Tint
  | Tbool
  | Tunit
  | Tvar of tv ref
  | Tarrow of t * t
  | Ttuple of t list
  | Tlist of t
  | Tarray of t
  | Tcon of string (* nominal user-declared ADT *)

and tv =
  | Unbound of int * int (* id, level *)
  | Link of t
  | Rigid of int (* generalized/skolem variable, printed 'a, 'b, ... *)

let var_counter = ref 0

(* Safe between runs: {!Builtins} schemes hold only [Rigid] variables,
   so no [Unbound] id outlives the run that made it. *)
let reset_vars () = var_counter := 0

let fresh_var level =
  incr var_counter;
  Tvar (ref (Unbound (!var_counter, level)))

(** Path-compressing representative. *)
let rec repr t =
  match t with
  | Tvar ({ contents = Link u } as r) ->
      let u' = repr u in
      r := Link u';
      u'
  | _ -> t

(** Resolve all links, leaving [Unbound]/[Rigid] vars in place. *)
let rec resolve t =
  match repr t with
  | (Tint | Tbool | Tunit | Tcon _) as t -> t
  | Tvar _ as t -> t
  | Tarrow (a, b) -> Tarrow (resolve a, resolve b)
  | Ttuple ts -> Ttuple (List.map resolve ts)
  | Tlist t -> Tlist (resolve t)
  | Tarray t -> Tarray (resolve t)

exception Unify_error of t * t
exception Occurs_check of int * t

(** Occurs check; also lowers the levels of variables inside [t] so that
    generalization at an outer level cannot capture them. *)
let rec occurs_adjust id level t =
  match repr t with
  | Tint | Tbool | Tunit | Tcon _ -> ()
  | Tvar ({ contents = Unbound (id', level') } as r) ->
      if id = id' then raise (Occurs_check (id, t));
      if level' > level then r := Unbound (id', level)
  | Tvar { contents = Rigid _ } -> ()
  | Tvar { contents = Link _ } -> assert false
  | Tarrow (a, b) ->
      occurs_adjust id level a;
      occurs_adjust id level b
  | Ttuple ts -> List.iter (occurs_adjust id level) ts
  | Tlist t | Tarray t -> occurs_adjust id level t

let rec unify a b =
  let a = repr a and b = repr b in
  if a == b then ()
  else
    match (a, b) with
    | Tint, Tint | Tbool, Tbool | Tunit, Tunit -> ()
    | Tcon a, Tcon b when String.equal a b -> ()
    | Tvar ({ contents = Unbound (id, level) } as r), t
    | t, Tvar ({ contents = Unbound (id, level) } as r) ->
        occurs_adjust id level t;
        r := Link t
    | Tvar { contents = Rigid i }, Tvar { contents = Rigid j } when i = j -> ()
    | Tarrow (a1, a2), Tarrow (b1, b2) ->
        unify a1 b1;
        unify a2 b2
    | Ttuple ts, Ttuple us when List.length ts = List.length us ->
        List.iter2 unify ts us
    | Tlist t, Tlist u | Tarray t, Tarray u -> unify t u
    | _ -> raise (Unify_error (a, b))

(* -- Schemes ------------------------------------------------------------ *)

type scheme = { nvars : int; body : t }
(** In a scheme body, generalized variables appear as [Rigid k] with
    [0 <= k < nvars]. *)

let trivial_scheme t = { nvars = 0; body = t }

(** Generalize variables above [level] into a scheme. *)
let generalize level t =
  let mapping = Hashtbl.create 8 in
  let count = ref 0 in
  let rec go t =
    match repr t with
    | (Tint | Tbool | Tunit | Tcon _) as t -> t
    | Tvar ({ contents = Unbound (id, level') } as r) as t ->
        if level' > level then begin
          let k =
            match Hashtbl.find_opt mapping id with
            | Some k -> k
            | None ->
                let k = !count in
                incr count;
                Hashtbl.add mapping id k;
                k
          in
          ignore r;
          Tvar (ref (Rigid k))
        end
        else t
    | Tvar { contents = Rigid _ } as t -> t
    | Tvar { contents = Link _ } -> assert false
    | Tarrow (a, b) ->
        (* evaluate left-to-right so variable numbering is deterministic *)
        let a' = go a in
        let b' = go b in
        Tarrow (a', b')
    | Ttuple ts -> Ttuple (List.map go ts)
    | Tlist t -> Tlist (go t)
    | Tarray t -> Tarray (go t)
  in
  let body = go t in
  { nvars = !count; body }

(** Instantiate a scheme with fresh unification variables at [level].
    Returns the instantiated body and the fresh types standing for each
    generalized variable (used by liquid instantiation). *)
let instantiate level { nvars; body } =
  let fresh = Array.init nvars (fun _ -> fresh_var level) in
  let rec go t =
    match repr t with
    | (Tint | Tbool | Tunit | Tcon _) as t -> t
    | Tvar { contents = Rigid k } -> fresh.(k)
    | Tvar _ as t -> t
    | Tarrow (a, b) -> Tarrow (go a, go b)
    | Ttuple ts -> Ttuple (List.map go ts)
    | Tlist t -> Tlist (go t)
    | Tarray t -> Tarray (go t)
  in
  (go body, Array.to_list fresh)

(* -- Printing ------------------------------------------------------------ *)

let tyvar_name k =
  let letter = Char.chr (Char.code 'a' + (k mod 26)) in
  if k < 26 then Printf.sprintf "'%c" letter
  else Printf.sprintf "'%c%d" letter (k / 26)

let rec pp ppf t =
  match repr t with
  | Tint -> Fmt.string ppf "int"
  | Tbool -> Fmt.string ppf "bool"
  | Tunit -> Fmt.string ppf "unit"
  | Tcon c -> Fmt.string ppf c
  | Tvar { contents = Unbound (id, _) } -> Fmt.pf ppf "'_%d" id
  | Tvar { contents = Rigid k } -> Fmt.string ppf (tyvar_name k)
  | Tvar { contents = Link _ } -> assert false
  | Tarrow (a, b) -> Fmt.pf ppf "%a -> %a" pp_atom a pp b
  | Ttuple ts -> Fmt.pf ppf "%a" Fmt.(list ~sep:(any " * ") pp_atom) ts
  | Tlist t -> Fmt.pf ppf "%a list" pp_atom t
  | Tarray t -> Fmt.pf ppf "%a array" pp_atom t

and pp_atom ppf t =
  match repr t with
  | Tarrow _ | Ttuple _ -> Fmt.pf ppf "(%a)" pp t
  | _ -> pp ppf t

let pp_scheme ppf { nvars; body } =
  if nvars = 0 then pp ppf body
  else
    Fmt.pf ppf "forall %a. %a"
      Fmt.(list ~sep:(any " ") string)
      (List.init nvars tyvar_name)
      pp body
