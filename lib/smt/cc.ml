(** Congruence closure for the theory of equality with uninterpreted
    functions (EUF).

    Nodes are hash-consed first-order terms over entity variables (shared
    with the arithmetic solver), integer constants, and applications of
    {!Liquid_logic.Symbol} heads.  The structure maintains a union-find
    partition closed under congruence, plus a set of disequalities that is
    checked for conflicts eagerly.

    The implementation is the classic Nelson–Oppen style closure: each
    class keeps a list of parent applications; on a merge, parents are
    re-canonicalized through a signature table, and newly congruent pairs
    are queued for merging.  Each merge adds an edge between the two
    nodes merged to a proof forest (Nieuwenhuis and Oliveras,
    "Proof-producing congruence closure", RTA 2005), labelled by the
    source of the asserted equality or as a congruence, which the
    equalities of the two applications' arguments explain. *)

open Liquid_logic

type node = int

type expr =
  | Evar of int (* entity id, shared with the arithmetic layer *)
  | Econst of int
  | Eapp of Symbol.t * node list

type t = {
  mutable exprs : expr array; (* node id -> structure *)
  mutable parent : int array; (* union-find *)
  mutable rank : int array;
  mutable konst : node option array; (* constant node of the class, at root *)
  mutable parents : node list array; (* applications mentioning this class *)
  mutable proof : (node * int) array; (* forest edge (or -1) and its source *)
  mutable nnodes : int;
  node_tbl : (expr, node) Hashtbl.t; (* hash-consing *)
  sig_tbl : (string * node list, node) Hashtbl.t; (* congruence signatures *)
  mutable diseqs : (node * node * int) list;
  mutable conflict : int list option;
}

(* The label of an edge between two congruent applications. *)
let congruent = min_int

let create () =
  {
    exprs = Array.make 16 (Econst 0);
    parent = Array.make 16 0;
    rank = Array.make 16 0;
    konst = Array.make 16 None;
    parents = Array.make 16 [];
    proof = Array.make 16 (-1, 0);
    nnodes = 0;
    node_tbl = Hashtbl.create 32;
    sig_tbl = Hashtbl.create 32;
    diseqs = [];
    conflict = None;
  }

let copy t =
  {
    t with
    exprs = Array.copy t.exprs;
    parent = Array.copy t.parent;
    rank = Array.copy t.rank;
    konst = Array.copy t.konst;
    parents = Array.copy t.parents;
    proof = Array.copy t.proof;
    node_tbl = Hashtbl.copy t.node_tbl;
    sig_tbl = Hashtbl.copy t.sig_tbl;
  }

let rec find t n =
  let p = t.parent.(n) in
  if p = n then n
  else begin
    let r = find t p in
    t.parent.(n) <- r;
    r
  end

let grow t n =
  let cap = Array.length t.exprs in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.exprs <- extend t.exprs (Econst 0);
    t.parent <- extend t.parent 0;
    t.rank <- extend t.rank 0;
    t.konst <- extend t.konst None;
    t.parents <- extend t.parents [];
    t.proof <- extend t.proof (-1, 0)
  end

let alloc t expr =
  let n = t.nnodes in
  grow t (n + 1);
  t.nnodes <- n + 1;
  t.exprs.(n) <- expr;
  t.parent.(n) <- n;
  t.rank.(n) <- 0;
  t.konst.(n) <- (match expr with Econst _ -> Some n | _ -> None);
  t.parents.(n) <- [];
  t.proof.(n) <- (-1, 0);
  Hashtbl.replace t.node_tbl expr n;
  n

let signature t f args = (Symbol.name f, List.map (find t) args)

(* Explanations ------------------------------------------------------ *)

(* Point [n] at [next] with source [w], reversing the path above [n],
   so that [n]'s tree hangs from [next]. *)
let rec reroot t n next w =
  let up, w' = t.proof.(n) in
  t.proof.(n) <- (next, w);
  if up >= 0 then reroot t up n w'

(** The sources behind [a = b], which must hold: the labels of the
    forest path between them, each edge once, a congruence edge by the
    equalities of its argument pairs. *)
let explain t a b =
  let seen = Hashtbl.create 8 and srcs = ref [] in
  (* The path from the root of [n]'s tree down to [n]. *)
  let rec down n acc = if n < 0 then acc else down (fst t.proof.(n)) (n :: acc) in
  let rec eq a b = apart (down a []) (down b [])
  (* The edges of both paths below their last common node. *)
  and apart pa pb =
    match (pa, pb) with
    | p :: pa, q :: pb when p = q -> apart pa pb
    | _ ->
        List.iter edge pa;
        List.iter edge pb
  and edge n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      match (t.proof.(n), t.exprs.(n)) with
      | (up, w), Eapp (_, args) when w = congruent -> (
          match t.exprs.(up) with Eapp (_, args') -> List.iter2 eq args args' | _ -> assert false)
      | (_, w), _ -> srcs := w :: !srcs
    end
  in
  eq a b;
  List.sort_uniq Int.compare !srcs

let clash t srcs = if t.conflict = None then t.conflict <- Some (List.sort_uniq Int.compare srcs)

(* Merging ----------------------------------------------------------- *)

let rec merge t a b w =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    reroot t a b w;
    (* Conflict if two distinct integer constants are identified. *)
    (match (t.konst.(ra), t.konst.(rb)) with
    | Some m, Some n when m <> n -> clash t (explain t m n)
    | _ -> ());
    let k = match t.konst.(ra) with Some _ as s -> s | None -> t.konst.(rb) in
    let ra, rb =
      if t.rank.(ra) < t.rank.(rb) then (ra, rb) else (rb, ra)
    in
    (* ra is absorbed into rb. *)
    t.parent.(ra) <- rb;
    if t.rank.(ra) = t.rank.(rb) then t.rank.(rb) <- t.rank.(rb) + 1;
    t.konst.(rb) <- k;
    let moved = t.parents.(ra) in
    t.parents.(ra) <- [];
    t.parents.(rb) <- List.rev_append moved t.parents.(rb);
    (* Re-canonicalize the applications that mentioned the absorbed class;
       congruent pairs show up as signature-table collisions. *)
    let pending = ref [] in
    List.iter
      (fun app ->
        match t.exprs.(app) with
        | Eapp (f, args) -> (
            let s = signature t f args in
            match Hashtbl.find_opt t.sig_tbl s with
            | Some app' when find t app' <> find t app ->
                pending := (app, app') :: !pending
            | Some _ -> ()
            | None -> Hashtbl.replace t.sig_tbl s app)
        | _ -> ())
      moved;
    List.iter (fun (x, y) -> merge t x y congruent) !pending;
    (* Disequality conflicts. *)
    match List.find_opt (fun (x, y, _) -> find t x = find t y) t.diseqs with
    | Some (x, y, k) -> clash t (k :: explain t x y)
    | None -> ()
  end

(* Node construction -------------------------------------------------- *)

let node_of_expr t expr =
  match Hashtbl.find_opt t.node_tbl expr with
  | Some n -> n
  | None ->
      let n = alloc t expr in
      (match expr with
      | Eapp (f, args) -> (
          List.iter
            (fun a ->
              let ra = find t a in
              t.parents.(ra) <- n :: t.parents.(ra))
            args;
          let s = signature t f args in
          match Hashtbl.find_opt t.sig_tbl s with
          | Some n' -> merge t n n' congruent
          | None -> Hashtbl.replace t.sig_tbl s n)
      | _ -> ());
      n

let var t id = node_of_expr t (Evar id)
let const t n = node_of_expr t (Econst n)
let app t f args = node_of_expr t (Eapp (f, args))

(* Assertions ---------------------------------------------------------- *)

let assert_eq t a b k = merge t a b k

let assert_ne t a b k =
  if find t a = find t b then clash t (k :: explain t a b)
  else t.diseqs <- (a, b, k) :: t.diseqs

let conflict t = t.conflict

let equal t a b = find t a = find t b

(* Class enumeration --------------------------------------------------- *)

(** All nodes, with their current representative. *)
let nodes_with_reprs t =
  List.init t.nnodes (fun n -> (n, find t n))

(** The expression stored at a node. *)
let expr_of t n = t.exprs.(n)
