(** First-order terms of the refinement logic.

    Terms are sorted ({!Sort.Int} or {!Sort.Obj}); boolean program values
    appear at the predicate level (see {!Pred}), never as terms.  Variables
    carry their sort so downstream passes (qualifier instantiation, the SMT
    solver) never need a symbol table.

    Terms are {e hash-consed}: every node is interned in a global table, so
    structural equality coincides with physical equality, [compare] is a
    constant-time id comparison, and each node memoizes its hash, its
    free-variable set and its rendering.  The solver re-visits the same
    predicates thousands of times as the fixpoint shrinks candidate sets,
    so cheap equality and memoized free variables dominate the cost of
    embedding and relevance pruning.  The interning table is append-only:
    nodes are never evicted, which keeps physical equality valid for the
    whole process lifetime.

    Multiplication is kept as a syntactic node: the SMT front end
    linearizes products with a constant operand and purifies genuinely
    non-linear products into the uninterpreted symbol {!Symbol.mul}. *)

open Liquid_common

type t = {
  node : node;
  tag : int; (* unique interning id; allocation order *)
  hkey : int; (* structural hash, memoized *)
  mutable fvs : (Ident.t * Sort.t) list option; (* free vars, memoized *)
  mutable text : string option; (* [to_string], memoized *)
}

and node =
  | Int of int
  | Var of Ident.t * Sort.t
  | App of Symbol.t * t list
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

(* Children of a node are already interned, so shallow physical
   comparison of children decides structural equality of the node, and
   child hashes combine into the node hash in O(arity). *)
module Node = struct
  type nonrec t = node

  let equal n1 n2 =
    match (n1, n2) with
    | Int m, Int n -> Stdlib.Int.equal m n
    | Var (x, sx), Var (y, sy) -> Ident.equal x y && Sort.equal sx sy
    | App (f, ts), App (g, us) ->
        Symbol.equal f g
        && List.length ts = List.length us
        && List.for_all2 (fun a b -> a == b) ts us
    | Neg a, Neg b -> a == b
    | Add (a1, a2), Add (b1, b2)
    | Sub (a1, a2), Sub (b1, b2)
    | Mul (a1, a2), Mul (b1, b2) ->
        a1 == b1 && a2 == b2
    | _ -> false

  let mix h k = ((h * 31) + k) land max_int

  let hash = function
    | Int n -> mix 3 (Hashtbl.hash n)
    | Var (x, s) -> mix 5 (mix (Ident.hash x) (Hashtbl.hash s))
    | App (f, ts) ->
        List.fold_left (fun h t -> mix h t.hkey) (mix 7 (Symbol.hash f)) ts
    | Neg a -> mix 11 a.hkey
    | Add (a, b) -> mix 13 (mix a.hkey b.hkey)
    | Sub (a, b) -> mix 17 (mix a.hkey b.hkey)
    | Mul (a, b) -> mix 19 (mix a.hkey b.hkey)
end

module H = Hashtbl.Make (Node)

let table : t H.t = H.create 4096

let counter = ref 0

(** Intern a node verbatim (no simplification). *)
let make (node : node) : t =
  match H.find_opt table node with
  | Some t -> t
  | None ->
      incr counter;
      let t =
        { node; tag = !counter; hkey = Node.hash node; fvs = None; text = None }
      in
      H.add table node t;
      t

let view t = t.node
let tag t = t.tag
let hash t = t.hkey

(** Number of distinct live term nodes (observability). *)
let interned_count () = !counter

(* Interning makes structural equality physical and gives a constant-time
   total order.  The order is allocation order in this process, which
   depends on everything the process interned before, so no output may
   depend on it: order by structure where it can show (see
   [Prop.canon]). *)
let equal (a : t) (b : t) = a == b
let compare (a : t) (b : t) = Stdlib.Int.compare a.tag b.tag

(** Re-interning for terms built in {e another} heap — typically
    unmarshalled from a worker process.  Such terms are structurally
    well-formed but physically foreign: none of their nodes live in this
    process's interning table, so [equal]/[compare] (and every table
    keyed on tags) would silently misbehave on them.  A rehasher walks
    the foreign DAG bottom-up through {!make}, producing the canonical
    local node for every sub-term.  The memo table is keyed on the
    foreign tags, which are internally consistent within one marshalled
    payload — one rehasher must therefore be used per payload, never
    shared across payloads from different workers. *)
let rehasher () : t -> t =
  let memo : (int, t) Hashtbl.t = Hashtbl.create 256 in
  let rec go t =
    match Hashtbl.find_opt memo t.tag with
    | Some t' -> t'
    | None ->
        let node =
          match t.node with
          | Int _ | Var _ -> t.node
          | App (f, ts) ->
              (* re-canonicalize the symbol through the local registry *)
              App (Symbol.declare (Symbol.name f) (Symbol.signature f),
                   List.map go ts)
          | Neg a -> Neg (go a)
          | Add (a, b) -> Add (go a, go b)
          | Sub (a, b) -> Sub (go a, go b)
          | Mul (a, b) -> Mul (go a, go b)
        in
        let t' = make node in
        Hashtbl.add memo t.tag t';
        t'
  in
  go

(** Sort of a term.  Arithmetic nodes are always [Int]; applications have
    the result sort of their head symbol. *)
let sort t =
  match t.node with
  | Int _ -> Sort.Int
  | Var (_, s) -> s
  | App (f, _) -> Symbol.result_sort f
  | Neg _ | Add _ | Sub _ | Mul _ -> Sort.Int

(* ------------------------------------------------------------------ *)
(* Free variables (memoized per node)                                  *)
(* ------------------------------------------------------------------ *)

let dedup_vars vs =
  Listx.dedup_ordered
    ~compare:(fun (x, _) (y, _) -> Ident.compare x y)
    vs

(** Free variables with their sorts, deduplicated, in left-to-right
    first-occurrence order.  Memoized: each distinct node computes its set
    once, merging the (already memoized) sets of its children. *)
let rec vars t =
  match t.fvs with
  | Some vs -> vs
  | None ->
      let vs =
        match t.node with
        | Int _ -> []
        | Var (x, s) -> [ (x, s) ]
        | App (_, ts) -> dedup_vars (List.concat_map vars ts)
        | Neg a -> vars a
        | Add (a, b) | Sub (a, b) | Mul (a, b) -> dedup_vars (vars a @ vars b)
      in
      t.fvs <- Some vs;
      vs

let mem_var x t = List.exists (fun (y, _) -> Ident.equal x y) (vars t)

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

(** Capture-avoiding substitution of terms for variables (the logic has no
    binders, so "capture-avoiding" is vacuous; substitution is
    simultaneous).  Sub-terms mentioning no substituted variable are
    returned unchanged — with interning this preserves sharing and skips
    whole subtrees. *)
let rec subst (m : t Ident.Map.t) (t : t) : t =
  if not (List.exists (fun (x, _) -> Ident.Map.mem x m) (vars t)) then t
  else
    match t.node with
    | Int _ -> t
    | Var (x, _) -> (
        match Ident.Map.find_opt x m with Some u -> u | None -> t)
    | App (f, ts) -> make (App (f, List.map (subst m) ts))
    | Neg a -> make (Neg (subst m a))
    | Add (a, b) -> make (Add (subst m a, subst m b))
    | Sub (a, b) -> make (Sub (subst m a, subst m b))
    | Mul (a, b) -> make (Mul (subst m a, subst m b))

let subst1 x u t = subst (Ident.Map.singleton x u) t

(* Smart constructors perform light constant folding; they keep terms small
   which directly shrinks SMT queries. *)

let int n = make (Int n)
let var x s = make (Var (x, s))

let app f ts =
  if List.length ts <> Symbol.arity f then
    invalid_arg (Printf.sprintf "Term.app: arity mismatch for %s" (Symbol.name f));
  make (App (f, ts))

let add a b =
  match (a.node, b.node) with
  | Int 0, _ -> b
  | _, Int 0 -> a
  | Int m, Int n -> int (m + n)
  | _ -> make (Add (a, b))

let sub a b =
  match (a.node, b.node) with
  | _, Int 0 -> a
  | Int m, Int n -> int (m - n)
  | _ -> make (Sub (a, b))

let neg t =
  match t.node with Int n -> int (-n) | Neg u -> u | _ -> make (Neg t)

let mul a b =
  match (a.node, b.node) with
  | Int 0, _ | _, Int 0 -> int 0
  | Int 1, _ -> b
  | _, Int 1 -> a
  | Int m, Int n -> int (m * n)
  | _ -> make (Mul (a, b))

let rec pp ppf t =
  match t.node with
  | Int n -> Fmt.int ppf n
  | Var (x, _) -> Ident.pp ppf x
  | App (f, ts) ->
      Fmt.pf ppf "%a(%a)" Symbol.pp f Fmt.(list ~sep:comma pp) ts
  | Neg t -> Fmt.pf ppf "(- %a)" pp t
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp a pp b

(* Memoized: the theory solver labels every application proxy with it,
   and the fixpoint looks applications up by it in pooled models. *)
let to_string t =
  match t.text with
  | Some s -> s
  | None ->
      let s = Fmt.str "%a" pp t in
      t.text <- Some s;
      s
