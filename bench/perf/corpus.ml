(** Known-answer inputs of the benchmark and the seeded generators that
    turn [--seed] into each workload's request list.

    Every request is a daemon wire request ({!Protocol.verify_request})
    plus its hand-written known answer.  In-process workloads translate
    it to pipeline options exactly as the daemon does ({!options}), so
    one representation serves all four workloads.  Answers never come
    from the verifier under test: the paper programs are SAFE by the
    paper, mutants and ablations are UNSAFE by construction, and every
    appended binding is run in the reference interpreter at set-up. *)

module Pipeline = Liquid_driver.Pipeline
module Protocol = Liquid_server.Protocol
module Programs = Liquid_suite.Programs
module Extended = Liquid_suite.Extended
module Gradual = Liquid_gradual.Gradual
module Qualifier = Liquid_infer.Qualifier
module Eval = Liquid_eval.Eval

type answer =
  | Safe
  | Unsafe
  | Modulo of int (* SAFE_MODULO n: no hard error, exactly n residuals *)
  | Not_safe (* any verdict but SAFE *)

type request = { rq : Protocol.verify_request; answer : answer }

let pp_answer ppf = function
  | Safe -> Fmt.string ppf "SAFE"
  | Unsafe -> Fmt.string ppf "UNSAFE"
  | Modulo n -> Fmt.pf ppf "SAFE_MODULO %d" n
  | Not_safe -> Fmt.string ppf "not SAFE"

let verdict (r : Pipeline.report) =
  Gradual.verdict_of ~errors:(List.length r.Pipeline.errors)
    ~residuals:(List.length r.Pipeline.residuals)

let satisfies answer (r : Pipeline.report) =
  match (answer, verdict r) with
  | Safe, Gradual.Safe | Unsafe, Gradual.Unsafe -> true
  | Modulo n, Gradual.Safe_modulo m -> n = m
  | Not_safe, v -> v <> Gradual.Safe
  | _ -> false

(** Pipeline options of a wire request, translated as the daemon
    translates it (the daemon's own translation is not exported). *)
let options ?cache_dir (q : Protocol.verify_request) : Pipeline.options =
  {
    Pipeline.default with
    quals =
      (if q.vq_use_defaults then Qualifier.defaults else [])
      @ (if q.vq_list_quals then Qualifier.list_defaults else [])
      @ Qualifier.parse_string ~file:q.vq_name q.vq_qual_text;
    specs = Liquid_infer.Spec.parse_string q.vq_spec_text;
    mine = q.vq_mine;
    lint = q.vq_lint;
    incremental = q.vq_incremental;
    explain = q.vq_explain;
    explain_limit = q.vq_explain_limit;
    gradual = q.vq_gradual;
    jobs = 1;
    cache_dir;
  }

(* -- The paper suite (T1) and the extended suite (E1) ------------------ *)

(* T1 verifies with its qualifier sets and no mining, as the paper's
   evaluation did; E1 adds constant mining (see test_extended.ml). *)
let t1_request ?source ?name (b : Programs.benchmark) answer =
  let source = Option.value source ~default:b.Programs.source in
  let name = Option.value name ~default:(b.Programs.name ^ ".ml") in
  {
    rq =
      Protocol.request ~qual_text:b.Programs.extra_qualifiers ~mine:false ~name
        source;
    answer;
  }

let e1_request ?source ?name b answer =
  let r = t1_request ?source ?name b answer in
  { r with rq = { r.rq with vq_mine = true } }

(* -- Mutants: planted bugs that must flip the verdict ------------------ *)

(* Replace every occurrence of [what]; a mutation that no longer applies
   (the program text moved on) must fail loudly, not yield a SAFE
   "mutant" that silently measures the wrong thing. *)
let mutate ~name ~what ~with_ src =
  let lw = String.length what in
  let b = Buffer.create (String.length src) in
  let rec go i =
    if i > String.length src - lw then
      Buffer.add_string b (String.sub src i (String.length src - i))
    else if String.sub src i lw = what then begin
      Buffer.add_string b with_;
      go (i + lw)
    end
    else begin
      Buffer.add_char b src.[i];
      go (i + 1)
    end
  in
  go 0;
  let out = Buffer.contents b in
  if out = src then failwith (Fmt.str "mutant %s: %S does not occur" name what);
  out

(* (suite, program, textual mutation), copied from test_suite.ml (T1)
   and test_extended.ml (E1). *)
let mutations =
  [
    (`T1, "bcopy", ("i < Array.length src", "i <= Array.length src"));
    (`T1, "isort", ("if 0 < j", "if 0 <= j"));
    (`T1, "queens", ("if r = size then 1", "if r = size + 1 then 1"));
    (`T1, "heapsort", ("if c2 < bound", "if c2 <= bound"));
    (`T1, "matmult", ("if k < n then", "if k <= n then"));
    (`T1, "gauss", ("if j <= n", "if j <= n + 1"));
    (`T1, "tower", ("s.(hs - k)", "s.(hs - k + 1)"));
    (`T1, "fft", ("if i + half < n", "if i < n"));
    (`E1, "queue", ("(head + count) mod cap", "(head + count) mod (cap + 1)"));
    (`E1, "pascal", ("row.(0) <- 1;", "row.(n + 1) <- 1;"));
    ( `E1,
      "sieve",
      ( "flags.(p) <- false;\n      mark (p + step) step",
        "flags.(p + step) <- false;\n      mark (p + step) step" ) );
    (`E1, "strmatch", ("if i + j < n then begin", "if i < n then begin"));
    ( `E1,
      "transpose",
      ("let t = make_matrix cols rows in", "let t = make_matrix rows cols in")
    );
    (`E1, "fibmemo", ("Array.make (n + 1)", "Array.make n"));
  ]

let mutant name =
  let suite, _, (what, with_) =
    List.find (fun (_, n, _) -> n = name) mutations
  in
  match suite with
  | `T1 ->
      let b = Programs.find name in
      t1_request b Unsafe ~name:(name ^ "-mutant.ml")
        ~source:(mutate ~name ~what ~with_ b.Programs.source)
  | `E1 ->
      let b = Extended.find name in
      e1_request b Unsafe ~name:(name ^ "-mutant.ml")
        ~source:(mutate ~name ~what ~with_ b.Programs.source)

(* Qualifier ablations: tower, simplex, gauss and bcopy need their custom
   qualifier and fail without it (bench A1). *)
let ablation name =
  let b = Programs.find name in
  {
    rq =
      Protocol.request ~mine:false ~name:(name ^ "-ablated.ml")
        b.Programs.source;
    answer = Unsafe;
  }

(* -- Datatypes with measures (bench ADT) -------------------------------- *)

let adt_corpus =
  [
    ( "tree",
      "type tree = Leaf | Node of tree * int * tree\n\
       measure size : tree =\n\
      \  | Leaf -> 0\n\
      \  | Node (l, _, r) -> 1 + size l + size r\n\
       measure height : tree =\n\
      \  | Leaf -> 0\n\
      \  | Node (l, _, r) -> 1 + max (height l) (height r)\n\
       let rec size_of t =\n\
      \  match t with\n\
      \  | Leaf -> 0\n\
      \  | Node (l, x, r) -> 1 + size_of l + size_of r\n\
       let check_grow l x r = assert (size_of (Node (l, x, r)) > size_of l)\n\
       let main = check_grow (Node (Leaf, 1, Leaf)) 2 Leaf",
      Safe );
    ( "stack",
      "type stack = Empty | Push of int * stack\n\
       measure depth : stack =\n\
      \  | Empty -> 0\n\
      \  | Push (_, rest) -> 1 + depth rest\n\
       let rec depth_of s =\n\
      \  match s with\n\
      \  | Empty -> 0\n\
      \  | Push (x, rest) -> 1 + depth_of rest\n\
       let push_grows x s = assert (depth_of (Push (x, s)) > depth_of s)\n\
       let main = push_grows 1 (Push (2, Empty))",
      Safe );
    ( "rbtree",
      "type color = Red | Black\n\
       type rbt = Nil | T of color * rbt * int * rbt\n\
       measure isred : color = | Red -> 1 | Black -> 0\n\
       measure reds : rbt =\n\
      \  | Nil -> 0\n\
      \  | T (c, l, _, r) -> isred c + reds l + reds r\n\
       let rec count_reds t =\n\
      \  match t with\n\
      \  | Nil -> 0\n\
      \  | T (c, l, x, r) ->\n\
      \      (match c with Red -> 1 | Black -> 0) + count_reds l + \
       count_reds r\n\
       let red_root_adds l x r =\n\
      \  assert (count_reds (T (Red, l, x, r)) > count_reds l + count_reds \
       r)\n\
       let main = red_root_adds Nil 7 (T (Black, Nil, 8, Nil))",
      Safe );
    ( "tree-unsafe",
      "type tree = Leaf | Node of tree * int * tree\n\
       measure size : tree =\n\
      \  | Leaf -> 0\n\
      \  | Node (l, _, r) -> 1 + size l + size r\n\
       let rec size_of t =\n\
      \  match t with\n\
      \  | Leaf -> 0\n\
      \  | Node (l, x, r) -> 1 + size_of l + size_of r\n\
       let check_grow l x r = assert (size_of (Node (l, x, r)) > size_of l + \
       1)\n\
       let main = check_grow Leaf 5 Leaf",
      Unsafe );
  ]

let adt name =
  let _, src, answer = List.find (fun (n, _, _) -> n = name) adt_corpus in
  { rq = Protocol.request ~name:(name ^ ".ml") src; answer }

(* -- Gradual corpus (bench GRADUAL) -------------------------------------- *)

(* (name, source, default qualifiers?, residual casts under --gradual).
   Without --gradual every one of them is UNSAFE. *)
let gradual_corpus =
  [
    ( "assertgap",
      "let rec sum k =\n\
      \  if k < 0 then 0\n\
      \  else begin\n\
      \    let s = sum (k - 1) in\n\
      \    s + k\n\
      \  end\n\n\
       let total = sum 5\n\
       let ok = assert (0 <= total)\n",
      false,
      1 );
    ( "overrun",
      "let a = Array.make 10 0\n\n\
       let rec fill i =\n\
      \  if i <= 10 then begin\n\
      \    a.(i) <- i;\n\
      \    fill (i + 1)\n\
      \  end\n\
      \  else 0\n\n\
       let start = fill 0\n",
      true,
      1 );
    ( "sharded",
      "let a = Array.make 10 0\n\
       let b = Array.make 20 0\n\n\
       let rec fill i =\n\
      \  if i <= 10 then begin\n\
      \    a.(i) <- i;\n\
      \    fill (i + 1)\n\
      \  end\n\
      \  else 0\n\n\
       let rec fillb j =\n\
      \  if j <= 20 then begin\n\
      \    b.(j) <- j;\n\
      \    fillb (j + 1)\n\
      \  end\n\
      \  else 0\n\n\
       let rec h n = if n < 1 then 1 else h (n - 1)\n\n\
       let s1 = fill 0\n\
       let s2 = fillb 0\n\
       let s3 = h 5\n",
      true,
      2 );
  ]

let gradual name =
  let _, src, use_defaults, _ =
    List.find (fun (n, _, _, _) -> n = name) gradual_corpus
  in
  { rq = Protocol.request ~use_defaults ~name:(name ^ ".ml") src; answer = Unsafe }

(* -- Known-answer cross-checks at set-up ---------------------------------- *)

(* Run a program in the reference interpreter; [true] iff it finishes
   without a bounds violation or failed assertion. *)
let runs_clean src =
  match
    Eval.run_program ~fuel:10_000_000
      (Liquid_lang.Parser.program_of_string ~file:"known-answer" src)
  with
  | _ -> true
  | exception (Eval.Bounds_violation _ | Eval.Assertion_failure _) -> false

(* A SAFE base must at least run clean: a trap would contradict its
   known answer. *)
let check_base (r : request) =
  if r.answer = Safe && not (runs_clean r.rq.vq_source) then
    failwith (Fmt.str "%s: known SAFE but traps when run" r.rq.vq_name)

(* The appended top-level binding of the edit and variant generators: a
   SAFE one reads the last cell of a 4-cell array, an UNSAFE one reads
   one past it. *)
let binding ~k ~safe =
  Fmt.str "\nlet bench_s%d = let a = Array.make 4 0 in a.(%d)\n" k
    (if safe then 3 else 4)

(* The binding's known answer, confirmed by running it alone. *)
let checked_binding ~k ~safe =
  let text = binding ~k ~safe in
  if runs_clean text <> safe then
    failwith
      (Fmt.str "binding %d: the interpreter disagrees with its known answer" k);
  text

(* [base] (SAFE) with a binding appended: SAFE iff the binding is. *)
let append (base : request) ~k ~safe =
  {
    rq = { base.rq with vq_source = base.rq.vq_source ^ checked_binding ~k ~safe };
    answer = (if safe then Safe else Unsafe);
  }

(* -- Seeded generators ----------------------------------------------------- *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let repeat n x = List.init n (fun _ -> x)

(* -- Workload request lists ------------------------------------------------- *)

(* [Smoke] trims every workload to a few cheap requests, keeping each
   kind of request and each check. *)
type size = Full | Smoke

let base name =
  match List.find_opt (fun (b : Programs.benchmark) -> b.name = name) Programs.all with
  | Some b -> t1_request b Safe
  | None -> (
      match List.find_opt (fun (b : Programs.benchmark) -> b.name = name) Extended.all with
      | Some b -> e1_request b Safe
      | None -> adt name)

(* Warm-up request of the in-process workloads' set-up, so lazy
   initialisation is paid before the first timed request: the paper's
   [max] overview example. *)
let warmup =
  {
    rq =
      Protocol.request ~name:"max.ml" Liquid_suite.Overview.max_example.source;
    answer = Safe;
  }

(** [t1-cold]: the 11 paper programs, in seeded order. *)
let t1_cold ~seed size =
  let names =
    match size with
    | Full -> List.map (fun (b : Programs.benchmark) -> b.name) Programs.all
    | Smoke -> [ "bcopy"; "isort"; "dotprod" ]
  in
  shuffle (rng ~seed ~salt:1) (List.map base names)

(** [diagnose]: cheap failing inputs, each verified once with
    explanations and once in gradual mode, in seeded order. *)
let diagnose ~seed size =
  let inputs =
    List.map
      (fun n -> (mutant n, Not_safe))
      [ "bcopy"; "isort"; "heapsort"; "queue"; "pascal"; "sieve"; "transpose"; "fibmemo" ]
    @ List.map (fun n -> (ablation n, Not_safe)) [ "bcopy"; "gauss" ]
    @ [ (adt "tree-unsafe", Not_safe) ]
    @ List.map
        (fun (n, _, _, k) -> (gradual n, Modulo k))
        gradual_corpus
  in
  let inputs =
    match size with
    | Full -> inputs
    | Smoke ->
        List.filter
          (fun (r, _) ->
            List.mem r.rq.vq_name [ "isort-mutant.ml"; "tree-unsafe.ml"; "overrun.ml" ])
          inputs
  in
  shuffle (rng ~seed ~salt:2)
    (List.concat_map
       (fun (r, gradual_answer) ->
         [
           {
             rq = { r.rq with vq_explain = true; vq_explain_limit = 64 };
             answer = Unsafe;
           };
           { rq = { r.rq with vq_gradual = true }; answer = gradual_answer };
         ])
       inputs)

(* Per program and pass: SAFE appends, UNSAFE appends, reverts.  A
   program's first append re-solves the units the new binding reaches
   (for the E1 programs, whose mined constants it changes, most of
   them); later appends reuse every unit but the binding's; a revert is
   a whole-run cache hit. *)
let edit_plan = function
  | Full ->
      [
        ("dotprod", 10, 10, 8);
        ("bcopy", 12, 12, 8);
        ("isort", 10, 10, 8);
        ("heapsort", 10, 10, 8);
        ("gauss", 1, 1, 4);
        ("queue", 1, 1, 4);
        ("pascal", 10, 10, 8);
        ("sieve", 10, 10, 8);
        ("transpose", 10, 10, 8);
        ("fibmemo", 10, 10, 8);
      ]
  | Smoke -> [ ("bcopy", 1, 1, 1); ("isort", 1, 1, 1); ("fibmemo", 1, 1, 1) ]

(** [edit-warm]: the programs that seed the cache, and the edits — each
    the base text with one fresh binding appended, or the base text
    itself (a revert) — in seeded order.  Binding numbers are assigned
    before the shuffle, so a seed reorders the same edits. *)
let edits ~seed size =
  let plan = edit_plan size in
  let bases = List.map (fun (n, _, _, _) -> base n) plan in
  let k = ref 0 in
  let appends b n safe =
    List.init n (fun _ ->
        incr k;
        append b ~k:!k ~safe)
  in
  let edits =
    List.concat_map
      (fun ((_, s, u, r), b) -> appends b s true @ appends b u false @ repeat r b)
      (List.combine plan bases)
  in
  (bases, shuffle (rng ~seed ~salt:3) edits)

(** One step of the [daemon-mix] schedule.  A [Repeat] re-sends a hot
    request the set-up already solved (a memo hit); a [Fresh] request is
    a variant no daemon has seen (a cold solve); a [Pair] sends one fresh
    variant on both connections at once (one solve, one coalesced
    waiter).  Fresh and pair requests name their variant, whose replicas
    differ only in a trailing comment, so they verify identically. *)
type step = Repeat of int | Fresh of int * request | Pair of int * request

(* Hot programs, variant bases, and per block: repeats and fresh
   requests.  A pass is one block per variant; every block holds that
   variant's pair, fresh requests of as many different variants, and
   repeats cycling through the hot set, so every stretch of the pass
   carries the same mix (the pairs wait for both connections, and their
   cost depends on what runs beside them).

   The mix of a block is assumed, not taken from recorded daemon
   traffic: 8 repeats, 10 fresh requests and one pair, i.e. 40%, 50% and
   10% of its 20 requests.  Repeats stay below half so that the median
   latency falls among the solved requests: with exactly half the
   requests memo hits, the median is the slowest memo hit, which read
   1.0 to 3.6 ms over four seeds. *)
let daemon_plan = function
  | Full ->
      ( [ "bcopy"; "isort"; "fibmemo"; "queue"; "stack"; "tree" ],
        [ "bcopy"; "isort"; "fibmemo"; "dotprod"; "stack"; "rbtree" ],
        8,
        10 )
  | Smoke -> ([ "isort"; "stack" ], [ "bcopy"; "fibmemo" ], 1, 1)

(** [daemon-mix]: the hot set solved at set-up, the variants (each base
    with a SAFE or an UNSAFE binding), and the schedule, shuffled by the
    seed within each block.  Full size: 12 blocks of 20 requests — 96
    repeats, 120 fresh requests and 12 pairs. *)
let daemon_mix ~seed size =
  let hot_names, variant_bases, repeats, fresh = daemon_plan size in
  let hot = List.map base hot_names in
  let variants =
    Array.of_list
      (List.concat_map
         (fun n ->
           let b = base n in
           [ append b ~k:1 ~safe:true; append b ~k:2 ~safe:false ])
         variant_bases)
  in
  let nv = Array.length variants and nh = List.length hot in
  let replica = ref 0 in
  let copy i =
    incr replica;
    let v = variants.(i) in
    let source = v.rq.vq_source ^ Fmt.str "(* replica %d *)\n" !replica in
    { v with rq = { v.rq with vq_source = source } }
  in
  let block b =
    let pair = Pair (b, copy b) in
    let fresh = List.init fresh (fun j -> let i = (b + j) mod nv in Fresh (i, copy i)) in
    pair :: fresh @ List.init repeats (fun j -> Repeat (((b * repeats) + j) mod nh))
  in
  let st = rng ~seed ~salt:4 in
  let steps = List.concat_map (fun b -> shuffle st (block b)) (List.init nv Fun.id) in
  (hot, Array.to_list variants, steps)
