(** A-normalization and alpha-renaming.

    Liquid constraint generation needs the program in A-normal form:

    - application arguments, operator operands, [if] conditions, tuple and
      cons components, match scrutinees and assert operands are {e atoms}
      (variables or constants);

    atoms make the dependent rules of the paper directly applicable — the
    result type of an application [f x] is obtained by substituting the
    {e name} [x] into [f]'s dependent signature, and an [if] guard enters
    the environment as the predicate of its condition {e variable}.

    The pass simultaneously alpha-renames every binder to a globally
    unique name ([x#N] for source binders, [%tmp.N] for introduced
    temporaries), so downstream passes may treat names as global. *)

open Liquid_common
open Liquid_lang
open Ast

let rename_counter = ref 0

(** Rename a source binder to a globally unique, still-readable name.
    The ['#'] character cannot appear in source identifiers. *)
let rename_binder (x : Ident.t) : Ident.t =
  incr rename_counter;
  Ident.of_string (Printf.sprintf "%s#%d" (Ident.to_string x) !rename_counter)

let reset () = rename_counter := 0

type renaming = Ident.t Ident.Map.t

let lookup (rho : renaming) x =
  match Ident.Map.find_opt x rho with Some y -> y | None -> x

let is_atom (e : expr) =
  match e.desc with Const _ | Var _ -> true | _ -> false

(** [bind e k] names [e] if it is not already an atom, then continues with
    an atom in [k]. *)
let rec bind rho (e : expr) (k : expr -> expr) : expr =
  norm rho e (fun e' ->
      if is_atom e' then k e'
      else
        let tmp = Gensym.fresh "tmp" in
        let body = k (mk ~loc:e.loc (Var tmp)) in
        (* the introduced [let] spans both the named expression and the
           whole continuation, not just the former — downstream location
           reasoning (e.g. the unreachable-code lint's span containment)
           relies on child spans nesting inside their parent's *)
        mk ~loc:(Loc.merge e.loc body.loc) (Let (Nonrec, tmp, e', body)))

(** Like {!bind}, but keeps application spines in function position. *)
and bind_fn rho (e : expr) (k : expr -> expr) : expr =
  match e.desc with
  | App (e1, e2) ->
      bind_fn rho e1 (fun f ->
          bind rho e2 (fun a -> k (mk ~loc:e.loc (App (f, a)))))
  | _ -> bind rho e k

and bind_many rho (es : expr list) (k : expr list -> expr) : expr =
  match es with
  | [] -> k []
  | e :: rest -> bind rho e (fun a -> bind_many rho rest (fun atoms -> k (a :: atoms)))

(** Normalize [e]; the continuation receives an expression whose immediate
    subterms are atoms (but which is itself not necessarily an atom). *)
and norm rho (e : expr) (k : expr -> expr) : expr =
  match e.desc with
  | Const _ -> k e
  | Var x -> k (mk ~loc:e.loc (Var (lookup rho x)))
  | Fun (x, body) ->
      let x' = rename_binder x in
      let body' = to_anf (Ident.Map.add x x' rho) body in
      k (mk ~loc:e.loc (Fun (x', body')))
  | App (e1, e2) ->
      (* Application spines are preserved: [f a b] normalizes to
         [App (App (f, a'), b')] with atomic arguments, rather than naming
         the partial application.  This keeps the syntactic head visible,
         which constraint generation uses to label primitive-argument
         obligations (e.g. "array index may be out of bounds"). *)
      bind_fn rho e1 (fun f ->
          bind rho e2 (fun a -> k (mk ~loc:e.loc (App (f, a)))))
  | Binop (op, e1, e2) ->
      bind rho e1 (fun a1 ->
          bind rho e2 (fun a2 -> k (mk ~loc:e.loc (Binop (op, a1, a2)))))
  | Unop (op, e1) -> bind rho e1 (fun a -> k (mk ~loc:e.loc (Unop (op, a))))
  | If (c, e1, e2) ->
      (* Branches are normalized in their own scope (they are not shared),
         but the condition must be an atom. *)
      bind rho c (fun c' ->
          k (mk ~loc:e.loc (If (c', to_anf rho e1, to_anf rho e2))))
  | Let (Nonrec, x, e1, e2) ->
      let x' = rename_binder x in
      norm rho e1 (fun e1' ->
          let rho' = Ident.Map.add x x' rho in
          mk ~loc:e.loc (Let (Nonrec, x', e1', to_anf rho' e2)) |> k_let k)
  | Let (Rec, x, e1, e2) ->
      let x' = rename_binder x in
      let rho' = Ident.Map.add x x' rho in
      let e1' = to_anf rho' e1 in
      mk ~loc:e.loc (Let (Rec, x', e1', to_anf rho' e2)) |> k_let k
  | Tuple es -> bind_many rho es (fun atoms -> k (mk ~loc:e.loc (Tuple atoms)))
  | Constr (c, es) ->
      bind_many rho es (fun atoms -> k (mk ~loc:e.loc (Constr (c, atoms))))
  | Nil -> k e
  | Cons (e1, e2) ->
      bind rho e1 (fun a1 ->
          bind rho e2 (fun a2 -> k (mk ~loc:e.loc (Cons (a1, a2)))))
  | Match (scrut, cases) ->
      bind rho scrut (fun s ->
          let cases' =
            List.map
              (fun (p, body) ->
                let vars = pat_vars p in
                let rho', p' = rename_pat rho p vars in
                (p', to_anf rho' body))
              cases
          in
          k (mk ~loc:e.loc (Match (s, cases'))))
  | Assert e1 -> bind rho e1 (fun a -> k (mk ~loc:e.loc (Assert a)))

(** Continuations receiving a [let] must not re-name it (it is not an
    atom but needs no naming: its body already continues).  This helper
    documents that [Let] results flow through [k] unchanged only when [k]
    is the identity; otherwise we must be careful.  In practice [k_let]
    is only used where [k] is invoked on the whole let expression. *)
and k_let k e = k e

and rename_pat rho (p : pat) vars =
  let mapping = List.map (fun x -> (x, rename_binder x)) vars in
  let rho' =
    List.fold_left (fun m (x, x') -> Ident.Map.add x x' m) rho mapping
  in
  let rec go = function
    | (Pwild | Punit | Pbool _ | Pint _ | Pnil) as p -> p
    | Pvar x -> Pvar (List.assoc x mapping)
    | Ptuple ps -> Ptuple (List.map go ps)
    | Pcons (p1, p2) -> Pcons (go p1, go p2)
    | Pconstr (c, ps) -> Pconstr (c, List.map go ps)
  in
  (rho', go p)

(** Top-level normalization: the continuation is the identity. *)
and to_anf rho (e : expr) : expr = norm rho e Fun.id

(* Note: using [norm] with a non-identity continuation under [Let] would
   duplicate or capture the continuation; [bind]/[norm] as written only
   pass continuations downward into atom positions, and [Let]/branch
   bodies restart with [to_anf], so evaluation order and sharing are
   preserved. *)

let normalize_program (prog : program) : program =
  (* Top-level names are kept (they are the public interface) — except
     that a name shadowing an earlier item must be renamed: downstream
     passes treat names as global, and two bindings of one name would
     put contradictory facts about it into the logical environment
     (unsound: everything under an inconsistent environment verifies). *)
  let _, _, rev_items =
    List.fold_left
      (fun (seen, rho, acc) item ->
        let name' =
          if Ident.Set.mem item.name seen then rename_binder item.name
          else item.name
        in
        let rho_body =
          match item.rec_flag with
          | Rec -> Ident.Map.add item.name name' rho
          | Nonrec -> rho
        in
        let body = to_anf rho_body item.body in
        let rho' = Ident.Map.add item.name name' rho in
        (Ident.Set.add item.name seen, rho', { item with name = name'; body } :: acc))
      (Ident.Set.empty, Ident.Map.empty, [])
      prog
  in
  List.rev rev_items

(* -- ANF validation (used by tests) -------------------------------------- *)

(** Check that an expression is in A-normal form. *)
let rec is_anf (e : expr) : bool =
  let rec is_spine e =
    match e.desc with
    | App (e1, e2) -> is_spine e1 && is_atom e2
    | _ -> is_atom e
  in
  match e.desc with
  | Const _ | Var _ | Nil -> true
  | Fun (_, body) -> is_anf body
  | App (e1, e2) -> is_spine e1 && is_atom e2
  | Binop (_, e1, e2) -> is_atom e1 && is_atom e2
  | Unop (_, e1) -> is_atom e1
  | If (c, e1, e2) -> is_atom c && is_anf e1 && is_anf e2
  | Let (_, _, e1, e2) -> is_anf e1 && is_anf e2
  | Tuple es | Constr (_, es) -> List.for_all is_atom es
  | Cons (e1, e2) -> is_atom e1 && is_atom e2
  | Match (s, cases) ->
      is_atom s && List.for_all (fun (_, b) -> is_anf b) cases
  | Assert e1 -> is_atom e1
