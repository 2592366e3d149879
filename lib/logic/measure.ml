(** The measure table: structurally recursive functions on algebraic
    data, lifted into the refinement logic as uninterpreted function
    symbols with one defining axiom per constructor.

    A measure [m] over a datatype [t] gives one equation per constructor
    of [t]; the right-hand side is built from integer literals, the
    constructor's own arguments, measure applications to those arguments
    (structural recursion), arithmetic, and [max]/[min].  At every
    constructor application and every match arm the constraint generator
    asks this table for the corresponding instantiated axiom
    [m(v) = body] and adds it to the refinement environment — the only
    thing the solver ever learns about [m].

    The built-in list-length measure [llen] is the first entry of the
    table (equations [llen [] = 0] and [llen (h::t) = llen t + 1]); the
    array measure [len] is an axiom-free entry (arrays have no surface
    constructors — [len] facts come from the refined primitives).  User
    measures from [measure] declarations are registered per run via
    {!register} and cleared by {!reset}.

    [max]/[min] are not symbols of the EUFA logic; axioms containing
    them are lowered at instantiation time into guarded linear cases
    (e.g. [m v = 1 + max(a,b)] becomes
    [(a >= b -> m v = 1 + a) && (a < b -> m v = 1 + b)]). *)

type body =
  | Cint of int
  | Carg of int (* integer-sorted constructor argument, by position *)
  | Capp of string * int (* measure applied to the argument at a position *)
  | Cneg of body
  | Cadd of body * body
  | Csub of body * body
  | Cmul of body * body
  | Cmax of body * body
  | Cmin of body * body

type eqn = { ctor : string; arity : int; body : body }

type t = {
  name : string;
  sym : Symbol.t;
  tycon : string;
  eqns : eqn list;
  nonneg : bool; (* provably [m v >= 0] for every value, by induction *)
  builtin : bool;
}

(* Registration order is the iteration order everywhere below — the
   solver pipeline depends on deterministic fact ordering. *)
let table : (string, t) Hashtbl.t = Hashtbl.create 16
let order : t list ref = ref []

let find name = Hashtbl.find_opt table name

let all () = List.rev !order

let measures_on tycon =
  List.filter (fun m -> String.equal m.tycon tycon) (all ())

(* A measure is non-negative when every equation body is, granting the
   induction hypothesis that recursive applications of the measure
   itself (and previously registered non-negative measures) are
   non-negative.  Base constructors have no recursive applications, so
   the induction is well-founded. *)
let rec body_nonneg self = function
  | Cint n -> n >= 0
  | Carg _ -> false
  | Capp (m, _) -> (
      String.equal m self
      || match find m with Some mt -> mt.nonneg | None -> false)
  | Cneg _ | Csub _ -> false
  | Cadd (a, b) | Cmul (a, b) | Cmin (a, b) ->
      body_nonneg self a && body_nonneg self b
  | Cmax (a, b) -> body_nonneg self a || body_nonneg self b

let register_gen ~builtin ~name ~tycon eqns =
  (match find name with
  | Some existing when builtin && existing.builtin -> ()
  | Some _ -> invalid_arg (Printf.sprintf "Measure.register: duplicate measure %s" name)
  | None -> ());
  let sym = Symbol.declare_measure name in
  let nonneg =
    eqns <> [] && List.for_all (fun e -> body_nonneg name e.body) eqns
  in
  let m = { name; sym; tycon; eqns; nonneg; builtin } in
  Hashtbl.replace table name m;
  order := m :: !order;
  m

let register ~name ~tycon eqns = register_gen ~builtin:false ~name ~tycon eqns

let reset () =
  let keep = List.filter (fun m -> m.builtin) (all ()) in
  Hashtbl.reset table;
  order := [];
  List.iter
    (fun m ->
      Hashtbl.replace table m.name m;
      order := m :: !order)
    keep

(* Built-in entries: the first rows of the table. *)
let llen =
  register_gen ~builtin:true ~name:"llen" ~tycon:"list"
    [
      { ctor = "[]"; arity = 0; body = Cint 0 };
      { ctor = "::"; arity = 2; body = Cadd (Capp ("llen", 1), Cint 1) };
    ]

(* [len] has no surface constructors, so no equations: its defining
   facts come from the refined array primitives.  Its non-negativity is
   intrinsic, hence the override. *)
let len =
  let m = register_gen ~builtin:true ~name:"len" ~tycon:"array" [] in
  let m = { m with nonneg = true } in
  Hashtbl.replace table m.name m;
  order := m :: List.filter (fun o -> not (String.equal o.name m.name)) !order;
  m

(* -- Term/axiom construction ---------------------------------------------- *)

(** [app name t] — apply the measure [name] to an [Obj]-sorted term.
    @raise Invalid_argument if no such measure is registered. *)
let app name t =
  match find name with
  | Some m -> Term.app m.sym [ t ]
  | None -> invalid_arg (Printf.sprintf "Measure.app: unknown measure %s" name)

(** [m v >= 0] when the measure is provably non-negative. *)
let nonneg_fact m v = if m.nonneg then Some (Pred.ge (Term.app m.sym [ v ]) (Term.int 0)) else None

exception Missing_arg

(* Lower a body to guarded linear cases: a list of (guards, term) pairs
   whose guards are exhaustive and mutually ordered ([max]/[min] split
   on [>=] vs [<]).  Raises [Missing_arg] when the body needs a
   constructor argument the caller could not supply. *)
let rec cases (args : Term.t option list) = function
  | Cint n -> [ ([], Term.int n) ]
  | Carg i -> (
      match List.nth_opt args i with
      | Some (Some t) -> [ ([], t) ]
      | _ -> raise Missing_arg)
  | Capp (name, i) -> (
      match (find name, List.nth_opt args i) with
      | Some m, Some (Some t) -> [ ([], Term.app m.sym [ t ]) ]
      | _ -> raise Missing_arg)
  | Cneg b -> List.map (fun (g, t) -> (g, Term.neg t)) (cases args b)
  | Cadd (a, b) -> cross args Term.add a b
  | Csub (a, b) -> cross args Term.sub a b
  | Cmul (a, b) -> cross args Term.mul a b
  | Cmax (a, b) -> split args ~ge_wins:true a b
  | Cmin (a, b) -> split args ~ge_wins:false a b

and cross args f a b =
  let ca = cases args a and cb = cases args b in
  List.concat_map
    (fun (ga, ta) -> List.map (fun (gb, tb) -> (ga @ gb, f ta tb)) cb)
    ca

and split args ~ge_wins a b =
  let ca = cases args a and cb = cases args b in
  List.concat_map
    (fun (ga, ta) ->
      List.concat_map
        (fun (gb, tb) ->
          let g = ga @ gb in
          [
            (g @ [ Pred.ge ta tb ], if ge_wins then ta else tb);
            (g @ [ Pred.lt ta tb ], if ge_wins then tb else ta);
          ])
        cb)
    ca

(** [ctor_axiom m ~ctor ~value ~args] — the instantiated defining axiom
    [m(value) = body] for an application of [ctor] to [args] ([None] for
    arguments whose logical value is unavailable, e.g. boolean payloads).
    Returns [None] when the constructor has no equation or the body
    needs an unavailable argument. *)
let ctor_axiom m ~ctor ~(value : Term.t) ~(args : Term.t option list) =
  match List.find_opt (fun e -> String.equal e.ctor ctor) m.eqns with
  | None -> None
  | Some e -> (
      let lhs = Term.app m.sym [ value ] in
      try
        match cases args e.body with
        | [ ([], t) ] -> Some (Pred.eq lhs t)
        | cs ->
            Some
              (Pred.conj
                 (List.map (fun (g, t) -> Pred.imp (Pred.conj g) (Pred.eq lhs t)) cs))
      with Missing_arg -> None)

(** All instantiated axioms for one constructor application, in
    registration order over the measures of [tycon]. *)
let ctor_axioms ~tycon ~ctor ~value ~args =
  List.filter_map (fun m -> ctor_axiom m ~ctor ~value ~args) (measures_on tycon)

let pp_body ppf b =
  let rec go ppf = function
    | Cint n -> Fmt.int ppf n
    | Carg i -> Fmt.pf ppf "$%d" i
    | Capp (m, i) -> Fmt.pf ppf "%s $%d" m i
    | Cneg b -> Fmt.pf ppf "(- %a)" go b
    | Cadd (a, b) -> Fmt.pf ppf "(%a + %a)" go a go b
    | Csub (a, b) -> Fmt.pf ppf "(%a - %a)" go a go b
    | Cmul (a, b) -> Fmt.pf ppf "(%a * %a)" go a go b
    | Cmax (a, b) -> Fmt.pf ppf "(max %a %a)" go a go b
    | Cmin (a, b) -> Fmt.pf ppf "(min %a %a)" go a go b
  in
  go ppf b

let pp_eqn ppf e = Fmt.pf ppf "%s/%d=%a" e.ctor e.arity pp_body e.body

let pp ppf m =
  Fmt.pf ppf "measure %s : %s =%a" m.name m.tycon
    (Fmt.list ~sep:Fmt.nop (fun ppf e ->
         Fmt.pf ppf "@ | %s/%d -> %a" e.ctor e.arity pp_body e.body))
    m.eqns
