(* Tests for the explanation engine: traced embedding, minimal cores,
   blame-path determinism across job counts, verified repair hints,
   failure deduplication, the explanation limit, JSON round-trips, and
   byte-identity of explanations across the direct / persistent-cache /
   daemon paths. *)

open Liquid_logic
open Liquid_smt
open Liquid_infer
module Pipeline = Liquid_driver.Pipeline
module Explain = Liquid_explain.Explain
module Json = Liquid_analysis.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Programs (all items named: gensym stamps drift across processes)    *)
(* ------------------------------------------------------------------ *)

(* A genuine off-by-one: [i <= 10] walks one past the end.  The
   environment does not refute the bounds goal outright (i = 5 also
   satisfies it), so the core is the relevance-retained set. *)
let overrun_src =
  "let a = Array.make 10 0\n\
   let rec fill i =\n\
  \  if i <= 10 then begin\n\
  \    a.(i) <- i;\n\
  \    fill (i + 1)\n\
  \  end\n\
  \  else 0\n\
   let start = fill 0"

(* A constant out-of-bounds read: the hypotheses refute the goal
   outright, so the core is deletion-minimized. *)
let refuted_src = "let a = Array.make 5 0\nlet bad = a.(7)"

(* Safe, but inexpressible without a non-negativity qualifier: verified
   with an empty qualifier set, the assertion fails and the repair
   search should find the missing instance. *)
let sum_src =
  "let rec sum k =\n\
  \  if k < 0 then 0\n\
  \  else begin\n\
  \    let s = sum (k - 1) in\n\
  \    s + k\n\
  \  end\n\
   let total = sum 5\n\
   let ok = assert (0 <= total)"

let explain_options ?(quals = Qualifier.defaults) () =
  { Pipeline.default with Pipeline.quals; explain = true }

let verify ?quals ?(options = explain_options ?quals ()) ~name src =
  Pipeline.verify_string ~options ~name src

let the_explanation (r : Pipeline.report) =
  match r.Pipeline.explanations with
  | [ ex ] -> ex
  | exs -> Alcotest.failf "expected 1 explanation, got %d" (List.length exs)

let render_explanations (r : Pipeline.report) =
  List.map
    (fun ex -> Fmt.str "%a" Explain.pp_explanation ex)
    r.Pipeline.explanations

(* ------------------------------------------------------------------ *)
(* Traced embedding mirrors the solver's embedding                     *)
(* ------------------------------------------------------------------ *)

(* [embed_env_trace] must produce exactly the facts of [embed_env], in
   the same order — the correspondence that lets minimized hypothesis
   indices be mapped back to binders and κs. *)
let test_traced_embedding () =
  let prog =
    Liquid_anf.Anf.normalize_program
      (Liquid_lang.Parser.program_of_string overrun_src)
  in
  let info = Liquid_typing.Infer.infer_program prog in
  let out = Congen.generate info prog in
  let res =
    Fixpoint.solve ~quals:Qualifier.defaults ~consts:[] out.Congen.wfs
      out.Congen.subs
      (Constr.partition_plan out.Congen.wfs out.Congen.subs)
  in
  let lookup k = Constr.sol_find res.Fixpoint.solution k in
  List.iter
    (fun (c : Constr.sub) ->
      let facts, guards = Constr.embed_env lookup c.Constr.sub_env in
      let traced, guards' = Constr.embed_env_trace lookup c.Constr.sub_env in
      check_bool "same facts in the same order" true
        (facts = List.map fst traced);
      check_bool "same guards" true (guards = guards'))
    out.Congen.subs;
  check_bool "the program exercised some constraints" true
    (out.Congen.subs <> [])

(* ------------------------------------------------------------------ *)
(* Cores                                                               *)
(* ------------------------------------------------------------------ *)

let core_preds (ex : Explain.explanation) =
  List.map (fun h -> h.Explain.ch_pred) ex.Explain.ex_core

(* A refuted core proves ¬goal, and dropping any member loses the
   refutation — deletion minimality, re-checked against the solver. *)
let test_refuted_core_minimal () =
  let r = verify ~name:"bad.ml" refuted_src in
  let ex = the_explanation r in
  check_bool "environment refutes the goal" true ex.Explain.ex_refuted;
  let core = core_preds ex in
  check_bool "core is non-empty" true (core <> []);
  let not_goal = Pred.not_ ex.Explain.ex_goal in
  check_bool "core refutes the goal" true
    (Solver.check_valid ~kept:core [] not_goal = Solver.Valid);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) core in
      check_bool
        (Fmt.str "dropping core member %d loses the refutation" i)
        false
        (Solver.check_valid ~kept:without [] not_goal = Solver.Valid))
    core

(* An unproven (but not refuted) goal keeps the relevance-retained set
   and a concrete witness; booleans surface as booleans. *)
let test_unproven_core_and_witness () =
  let r = verify ~name:"overrun.ml" overrun_src in
  let ex = the_explanation r in
  check_bool "overrun is not an outright refutation" false
    ex.Explain.ex_refuted;
  check_bool "core is non-empty" true (ex.Explain.ex_core <> []);
  check_bool "witness binds the scrutinized index" true
    (List.mem_assoc "i" ex.Explain.ex_witness);
  check_bool "nothing left unexplained" true
    (ex.Explain.ex_unexplained = None);
  check_bool "blame path reaches a source origin" true
    (List.exists
       (fun (s : Explain.blame_step) -> s.Explain.bs_origins <> [])
       ex.Explain.ex_blame);
  check_bool "no repair hint for a genuinely unsafe program" true
    (ex.Explain.ex_repair = None)

let test_boolean_witness () =
  let r = verify ~quals:[] ~name:"sum.ml" sum_src in
  let ex =
    match r.Pipeline.explanations with
    | ex :: _ -> ex
    | [] -> Alcotest.fail "expected an explanation"
  in
  check_bool "witness carries a boolean value" true
    (List.exists
       (fun (_, v) -> match v with Solver.Vbool _ -> true | _ -> false)
       ex.Explain.ex_witness);
  let rendered = Fmt.str "%a" Explain.pp_witness ex.Explain.ex_witness in
  check_bool "booleans render as booleans" true
    (try
       ignore (Str.search_forward (Str.regexp_string "= false") rendered 0);
       true
     with Not_found -> false)

(* ------------------------------------------------------------------ *)
(* Repair hints                                                        *)
(* ------------------------------------------------------------------ *)

(* The hint's soundness contract, end to end: render the hinted instance
   as a qualifier file, re-verify, and the program must pass. *)
let test_repair_hint_sound () =
  let r = verify ~quals:[] ~name:"sum.ml" sum_src in
  check_bool "program fails without qualifiers" false r.Pipeline.safe;
  let rp =
    match r.Pipeline.explanations with
    | { Explain.ex_repair = Some rp; _ } :: _ -> rp
    | _ -> Alcotest.fail "expected a repair hint"
  in
  let quals =
    Qualifier.parse_string
      (Fmt.str "qualif Fix(v) : %a" Pred.pp rp.Explain.rp_pred)
  in
  let fixed = verify ~quals ~name:"sum.ml" sum_src in
  check_bool "hinted qualifier makes the program verify" true
    fixed.Pipeline.safe

(* ------------------------------------------------------------------ *)
(* Deduplication and the explanation limit                             *)
(* ------------------------------------------------------------------ *)

(* Tuple subtyping against a spec with identical component refinements
   produces two failures with the same origin and the same interned
   goal: one explanation, counted twice. *)
let test_dedup_counts () =
  let specs =
    Spec.parse_string
      "val p : ({v:int | v > 0} * {v:int | v > 0})"
  in
  let options = { (explain_options ()) with Pipeline.specs } in
  let r = Pipeline.verify_string ~options ~name:"pair.ml" "let p = (0, 0)" in
  check_bool "program is unsafe" false r.Pipeline.safe;
  (match r.Pipeline.errors with
  | [ e ] -> check_int "two failures folded into one error" 2 e.Pipeline.err_count
  | es -> Alcotest.failf "expected 1 deduplicated error, got %d" (List.length es));
  let ex = the_explanation r in
  check_int "explanation carries the fold count" 2 ex.Explain.ex_count

let test_explain_limit () =
  let src =
    "let a = Array.make 5 0\nlet x = a.(7)\nlet y = a.(8)\nlet z = a.(9)"
  in
  let options = { (explain_options ()) with Pipeline.explain_limit = 1 } in
  let r = Pipeline.verify_string ~options ~name:"many.ml" src in
  check_int "three distinct failures" 3 (List.length r.Pipeline.errors);
  check_int "one explanation under the limit" 1
    (List.length r.Pipeline.explanations);
  check_int "the rest are counted, not explained" 2 r.Pipeline.explain_skipped;
  let rendered = Fmt.str "%a" Pipeline.pp_report r in
  check_bool "report points at --explain-limit" true
    (try
       ignore
         (Str.search_forward
            (Str.regexp_string "2 further failures not explained")
            rendered 0);
       true
     with Not_found -> false)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let obj_keys = function
  | Json.Obj kvs -> List.map fst kvs
  | _ -> Alcotest.fail "expected a JSON object"

let field name = function
  | Json.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> Alcotest.failf "missing JSON field %s" name)
  | _ -> Alcotest.fail "expected a JSON object"

let test_json_schema_and_round_trip () =
  let r = verify ~name:"overrun.ml" overrun_src in
  let j = Pipeline.json_of_report ~file:"overrun.ml" r in
  (* Round-trip through the parser: printing is canonical. *)
  let s = Json.to_string j in
  check_string "round-trip is the identity" s
    (Json.to_string (Json.of_string s));
  (* Schema of one explanation. *)
  (match field "explanations" j with
  | Json.List (ex :: _) ->
      List.iter
        (fun k ->
          check_bool (Fmt.str "explanation has %S" k) true
            (List.mem k (obj_keys ex)))
        [
          "loc"; "reason"; "goal"; "count"; "refuted"; "witness"; "core";
          "blame"; "repair"; "unexplained";
        ]
  | _ -> Alcotest.fail "expected a non-empty explanations array");
  match field "stats" j with
  | Json.Obj kvs ->
      check_bool "stats count explain SMT queries" true
        (List.mem_assoc "explain_smt_queries" kvs)
  | _ -> Alcotest.fail "expected a stats object"

(* ------------------------------------------------------------------ *)
(* Byte-identity: direct / persistent cache / daemon                   *)
(* ------------------------------------------------------------------ *)

let test_paths_byte_identical () =
  let direct = verify ~name:"overrun.ml" overrun_src in
  let expected = render_explanations direct in
  check_bool "direct run explains" true (expected <> []);
  (* Persistent cache: the warm (rehashed, disk-served) report renders
     identically. *)
  Test_server.with_dir (fun base ->
      let options =
        { (explain_options ()) with Pipeline.cache_dir = Some base }
      in
      let cold =
        Pipeline.verify_string ~options ~name:"overrun.ml" overrun_src
      in
      check_bool "cold cached run matches direct" true
        (render_explanations cold = expected);
      let warm =
        Pipeline.verify_string ~options ~name:"overrun.ml" overrun_src
      in
      check_int "second run served from the persistent cache" 1
        warm.Pipeline.stats.Pipeline.n_pcache_hits;
      check_bool "warm cached run matches direct" true
        (render_explanations warm = expected));
  (* Daemon: explanations cross the socket and a rehash. *)
  Test_server.with_server (fun sock ->
      Test_server.with_client sock (fun c ->
          let replies =
            Liquid_server.Client.verify c
              [
                Liquid_server.Protocol.request ~explain:true ~name:"overrun.ml"
                  overrun_src;
              ]
          in
          let served = Test_server.expect_verified (List.hd replies) in
          check_bool "daemon-served explanations match direct" true
            (render_explanations served = expected)))

let tests =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    tc "traced embedding mirrors embed_env" test_traced_embedding;
    tc "refuted core is deletion-minimal" test_refuted_core_minimal;
    tc "unproven goal keeps relevance core and witness"
      test_unproven_core_and_witness;
    tc "witness booleans render as booleans" test_boolean_witness;
    tc "repair hint verifies when applied" test_repair_hint_sound;
    tc "identical failures dedup with counts" test_dedup_counts;
    tc "--explain-limit caps and counts the rest" test_explain_limit;
    tc "JSON schema and parser round-trip" test_json_schema_and_round_trip;
    slow "direct/cache/daemon explanations byte-identical"
      test_paths_byte_identical;
  ]
