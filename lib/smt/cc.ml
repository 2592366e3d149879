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
    are queued for merging. *)

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
  mutable konst : int option array; (* constant value of the class, at root *)
  mutable parents : node list array; (* applications mentioning this class *)
  mutable nnodes : int;
  node_tbl : (expr, node) Hashtbl.t; (* hash-consing *)
  sig_tbl : (string * node list, node) Hashtbl.t; (* congruence signatures *)
  mutable diseqs : (node * node) list;
  mutable conflict : bool;
}

let create () =
  {
    exprs = Array.make 16 (Econst 0);
    parent = Array.make 16 0;
    rank = Array.make 16 0;
    konst = Array.make 16 None;
    parents = Array.make 16 [];
    nnodes = 0;
    node_tbl = Hashtbl.create 32;
    sig_tbl = Hashtbl.create 32;
    diseqs = [];
    conflict = false;
  }

let copy t =
  {
    t with
    exprs = Array.copy t.exprs;
    parent = Array.copy t.parent;
    rank = Array.copy t.rank;
    konst = Array.copy t.konst;
    parents = Array.copy t.parents;
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
    t.parents <- extend t.parents []
  end

let alloc t expr =
  let n = t.nnodes in
  grow t (n + 1);
  t.nnodes <- n + 1;
  t.exprs.(n) <- expr;
  t.parent.(n) <- n;
  t.rank.(n) <- 0;
  t.konst.(n) <- (match expr with Econst k -> Some k | _ -> None);
  t.parents.(n) <- [];
  Hashtbl.replace t.node_tbl expr n;
  n

let signature t f args = (Symbol.name f, List.map (find t) args)

(* Merging ----------------------------------------------------------- *)

let rec merge t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    (* Conflict if two distinct integer constants are identified. *)
    (match (t.konst.(ra), t.konst.(rb)) with
    | Some m, Some n when m <> n -> t.conflict <- true
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
    List.iter (fun (x, y) -> merge t x y) !pending;
    (* Disequality conflicts. *)
    if
      List.exists (fun (x, y) -> find t x = find t y) t.diseqs
    then t.conflict <- true
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
          | Some n' -> merge t n n'
          | None -> Hashtbl.replace t.sig_tbl s n)
      | _ -> ());
      n

let var t id = node_of_expr t (Evar id)
let const t n = node_of_expr t (Econst n)
let app t f args = node_of_expr t (Eapp (f, args))

(* Assertions ---------------------------------------------------------- *)

let assert_eq t a b = merge t a b

let assert_ne t a b =
  if find t a = find t b then t.conflict <- true
  else t.diseqs <- (a, b) :: t.diseqs

let ok t = not t.conflict

let equal t a b = find t a = find t b

(* Class enumeration --------------------------------------------------- *)

(** All nodes, with their current representative. *)
let nodes_with_reprs t =
  List.init t.nnodes (fun n -> (n, find t n))

(** The expression stored at a node. *)
let expr_of t n = t.exprs.(n)

(** Fold over all application nodes. *)
let fold_apps f t acc =
  let acc = ref acc in
  for n = 0 to t.nnodes - 1 do
    match t.exprs.(n) with
    | Eapp (g, args) -> acc := f !acc n g args
    | _ -> ()
  done;
  !acc
