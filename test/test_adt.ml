(* Tests for user-declared algebraic datatypes and measures: declaration
   validation (structured diagnostics with spans), measure-indexed
   refinement inference, measure hypotheses in explanation cores,
   agreement with the naive reference solve, determinism across the
   cache and the daemon, and the cache-soundness of the declaration
   digest. *)

open Liquid_lang
module Pipeline = Liquid_driver.Pipeline
module Protocol = Liquid_server.Protocol
module Server = Liquid_server.Server
module Client = Liquid_server.Client

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let src_tree_safe =
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
   let main = check_grow (Node (Leaf, 1, Leaf)) 2 Leaf"

(* [size r >= 0] justifies [> size_of l], but never [> size_of l + 1]
   (take [r = Leaf]). *)
let src_tree_unsafe =
  "type tree = Leaf | Node of tree * int * tree\n\
   measure size : tree =\n\
  \  | Leaf -> 0\n\
  \  | Node (l, _, r) -> 1 + size l + size r\n\
   let rec size_of t =\n\
  \  match t with\n\
  \  | Leaf -> 0\n\
  \  | Node (l, x, r) -> 1 + size_of l + size_of r\n\
   let check_grow l x r = assert (size_of (Node (l, x, r)) > size_of l + 1)\n\
   let main = check_grow Leaf 5 Leaf"

(* A size-indexed stack. *)
let src_stack =
  "type stack = Empty | Push of int * stack\n\
   measure depth : stack =\n\
  \  | Empty -> 0\n\
  \  | Push (_, rest) -> 1 + depth rest\n\
   let rec depth_of s =\n\
  \  match s with\n\
  \  | Empty -> 0\n\
  \  | Push (x, rest) -> 1 + depth_of rest\n\
   let push_grows x s = assert (depth_of (Push (x, s)) > depth_of s)\n\
   let main = push_grows 1 (Push (2, Empty))"

(* A red-black color invariant: one measure calling another across
   types. *)
let src_rbtree =
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
  \      (match c with Red -> 1 | Black -> 0) + count_reds l + count_reds r\n\
   let red_root_adds l x r =\n\
  \  assert (count_reds (T (Red, l, x, r)) > count_reds l + count_reds r)\n\
   let main = red_root_adds Nil 7 (T (Black, Nil, 8, Nil))"

(* The datatype programs every engine arm (cache, daemon) must agree
   on, with their expected verdicts. *)
let arm_programs =
  [
    ("tree", src_tree_safe, true);
    ("stack", src_stack, true);
    ("rbtree", src_rbtree, true);
    ("tree-unsafe", src_tree_unsafe, false);
  ]

let verify ?(options = Pipeline.default) src =
  Pipeline.verify_string ~options ~name:"adt.ml" src

(* The expected verdict, and a non-zero measure-axiom count: a zero
   count would mean the subsystem silently disengaged and the program
   passed for the wrong reason. *)
let check_engaged name expect_safe (r : Pipeline.report) =
  check_bool (name ^ ": expected verdict") expect_safe r.Pipeline.safe;
  check_bool (name ^ ": measure axioms emitted") true
    (r.Pipeline.stats.Pipeline.n_measure_axioms > 0)

let report_fingerprint (r : Pipeline.report) =
  Fmt.str "safe=%b errors=[%a] types=[%a]" r.Pipeline.safe
    Fmt.(list ~sep:(any ";") Pipeline.pp_error)
    r.Pipeline.errors
    Fmt.(
      list ~sep:(any ";") (fun ppf (x, t) ->
          Fmt.pf ppf "%a : %a" Liquid_common.Ident.pp x Liquid_infer.Rtype.pp
            (Liquid_infer.Report.display t)))
    r.Pipeline.item_types

let item_type (r : Pipeline.report) name =
  let _, t =
    List.find
      (fun (x, _) -> Liquid_common.Ident.to_string x = name)
      r.Pipeline.item_types
  in
  Fmt.str "%a" Liquid_infer.Rtype.pp (Liquid_infer.Report.display t)

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)
(* ------------------------------------------------------------------ *)

let test_tree_inference () =
  let r = verify src_tree_safe in
  check_bool "tree program is safe" true r.Pipeline.safe;
  let t = item_type r "size_of" in
  check_bool
    (Fmt.str "size_of's result is measure-indexed (got %s)" t)
    true
    (contains t "v = size(t)");
  check_int "two user measures counted" 2 r.Pipeline.stats.Pipeline.n_measures;
  check_bool "constructor/match sites emitted measure axioms" true
    (r.Pipeline.stats.Pipeline.n_measure_axioms > 0)

let test_measureless_programs_unchanged () =
  (* A declaration-free program must not pay for the subsystem: no
     measures, no axioms, same verdict as always. *)
  let r = verify "let rec sum k = if k < 0 then 0 else sum (k - 1) + k" in
  check_bool "safe" true r.Pipeline.safe;
  check_int "no user measures" 0 r.Pipeline.stats.Pipeline.n_measures

let test_unsafe_explain_cites_measure () =
  let options = { Pipeline.default with Pipeline.explain = true } in
  let r = verify ~options src_tree_unsafe in
  check_bool "seeded variant is unsafe" true (not r.Pipeline.safe);
  check_bool "failure is explained" true (r.Pipeline.explanations <> []);
  let cites_measure =
    List.exists
      (fun (ex : Liquid_explain.Explain.explanation) ->
        List.exists
          (fun (h : Liquid_explain.Explain.core_hyp) ->
            contains
              (Fmt.str "%a" Liquid_logic.Pred.pp
                 h.Liquid_explain.Explain.ch_pred)
              "size(")
          ex.Liquid_explain.Explain.ex_core)
      r.Pipeline.explanations
  in
  check_bool "explanation core cites a measure hypothesis" true cites_measure

(* ------------------------------------------------------------------ *)
(* Declaration diagnostics                                             *)
(* ------------------------------------------------------------------ *)

let decls_of src = snd (Parser.parse_string src)

let diags src = Declcheck.check (decls_of src)

let codes src = List.map (fun (d : Declcheck.diag) -> d.Declcheck.code) (diags src)

let test_declcheck_unknown_ctor () =
  let src =
    "type tree = Leaf | Node of tree * int * tree\n\
     measure bad : tree =\n\
    \  | Leaf -> 0\n\
    \  | Branch (l, _, r) -> 1 + bad l + bad r\n\
    \  | Node (l, _, r) -> 1 + bad l + bad r"
  in
  match diags src with
  | [ d ] ->
      check_string "unknown constructor is D005" "D005" d.Declcheck.code;
      (* precise span: the diagnostic points at the constructor token on
         line 4, not at the whole measure *)
      check_bool
        (Fmt.str "span names line 4 (got %a)" Liquid_common.Loc.pp
           d.Declcheck.loc)
        true
        (contains (Fmt.str "%a" Liquid_common.Loc.pp d.Declcheck.loc) "4.")
  | ds ->
      Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let test_declcheck_duplicate_ctor () =
  check_bool "duplicate constructor is D003" true
    (List.mem "D003" (codes "type a = C | D\ntype b = C"))

let test_declcheck_non_structural () =
  let src =
    "type tree = Leaf | Node of tree * int * tree\n\
     measure spin : tree =\n\
    \  | Leaf -> 0\n\
    \  | Node (l, _, r) -> 1 + spin (spin l)"
  in
  check_bool "non-structural recursion is D010" true
    (List.mem "D010" (codes src))

let test_declcheck_missing_equation () =
  let src =
    "type tree = Leaf | Node of tree * int * tree\n\
     measure partial_size : tree = | Leaf -> 0"
  in
  check_bool "missing equation is D007" true (List.mem "D007" (codes src))

let test_declcheck_is_diagnostic_not_exception () =
  (* A busted declaration unit yields a diagnostic list, never an
     exception — the checker recovers and reports everything. *)
  let ds =
    diags
      "type a = C | C\n\
       measure m : a = | C -> 0 | D x -> q x\n\
       measure m : a = | C -> 1"
  in
  check_bool "multiple diagnostics, in source order" true (List.length ds >= 3)

let test_pipeline_rejects_bad_decls () =
  match
    verify "type t = K\nmeasure m : t = | K -> 0 | J -> 1\nlet x = 1"
  with
  | exception Pipeline.Source_error (msg, loc) ->
      check_bool
        (Fmt.str "message carries the D-code (got %s)" msg)
        true
        (contains msg "[D005]");
      check_bool "error location is real" true
        (loc <> Liquid_common.Loc.dummy)
  | _ -> Alcotest.fail "expected Source_error on a bad declaration unit"

(* ------------------------------------------------------------------ *)
(* Cache soundness                                                     *)
(* ------------------------------------------------------------------ *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dsolve-adt-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

(* The two sources below have the same length and differ only inside a
   [measure] body (1 → 0): under the v2 semantics [size_of] no longer
   computes [size], so the assertion is unprovable.  Only the
   declaration digest in the unit fingerprint separates their partition
   cache entries — a stale hit would replay SAFE. *)
let src_measure_v1 =
  "type tree = Leaf | Node of tree * int * tree\n\
   measure size : tree =\n\
  \  | Leaf -> 0\n\
  \  | Node (l, _, r) -> 1 + size l + size r\n\
   let rec size_of t =\n\
  \  match t with\n\
  \  | Leaf -> 0\n\
  \  | Node (l, x, r) -> 1 + size_of l + size_of r\n\
   let grow l x r = assert (size_of (Node (l, x, r)) > size_of l)\n\
   let main = grow Leaf 5 Leaf\n\
   let shift y = if y > 0 then y + 3 else 1"

let src_measure_v2 =
  "type tree = Leaf | Node of tree * int * tree\n\
   measure size : tree =\n\
  \  | Leaf -> 0\n\
  \  | Node (l, _, r) -> 0 + size l + size r\n\
   let rec size_of t =\n\
  \  match t with\n\
  \  | Leaf -> 0\n\
  \  | Node (l, x, r) -> 1 + size_of l + size_of r\n\
   let grow l x r = assert (size_of (Node (l, x, r)) > size_of l)\n\
   let main = grow Leaf 5 Leaf\n\
   let shift y = if y > 0 then y + 3 else 1"

(* Unrelated edit: [shift]'s uncompared arm literal (1 → 2), decls
   untouched. *)
let src_measure_v3 =
  "type tree = Leaf | Node of tree * int * tree\n\
   measure size : tree =\n\
  \  | Leaf -> 0\n\
  \  | Node (l, _, r) -> 1 + size l + size r\n\
   let rec size_of t =\n\
  \  match t with\n\
  \  | Leaf -> 0\n\
  \  | Node (l, x, r) -> 1 + size_of l + size_of r\n\
   let grow l x r = assert (size_of (Node (l, x, r)) > size_of l)\n\
   let main = grow Leaf 5 Leaf\n\
   let shift y = if y > 0 then y + 3 else 2"

let test_cache_warm_identity () =
  List.iter
    (fun (name, src, expect_safe) ->
      with_dir (fun dir ->
          let options =
            { Pipeline.default with Pipeline.cache_dir = Some dir }
          in
          let cold = verify ~options src in
          check_engaged name expect_safe cold;
          let warm = verify ~options src in
          check_int (name ^ ": second run served from the whole-run cache") 1
            warm.Pipeline.stats.Pipeline.n_pcache_hits;
          check_string (name ^ ": warm report identical to cold")
            (report_fingerprint cold) (report_fingerprint warm);
          check_string (name ^ ": cached report identical to an uncached run")
            (report_fingerprint (verify src))
            (report_fingerprint cold)))
    arm_programs

let test_measure_edit_is_cache_sound () =
  with_dir (fun dir ->
      let options =
        { Pipeline.default with Pipeline.cache_dir = Some dir }
      in
      let v1 = verify ~options src_measure_v1 in
      check_bool "v1 semantics verifies" true v1.Pipeline.safe;
      check_int "source lengths match (the edit is digest-only)"
        (String.length src_measure_v1)
        (String.length src_measure_v2);
      let v2 = verify ~options src_measure_v2 in
      check_int "measure edit misses the whole-run cache" 0
        v2.Pipeline.stats.Pipeline.n_pcache_hits;
      check_int "measure edit invalidates every solve unit" 0
        v2.Pipeline.stats.Pipeline.n_punit_hits;
      check_bool "verdict actually changed" true (not v2.Pipeline.safe))

let test_unrelated_edit_reuses_partitions () =
  with_dir (fun dir ->
      let options =
        { Pipeline.default with Pipeline.cache_dir = Some dir }
      in
      ignore (verify ~options src_measure_v1);
      let v3 = verify ~options src_measure_v3 in
      check_bool "unedited partitions reused" true
        (v3.Pipeline.stats.Pipeline.n_punit_hits >= 1);
      check_string "report identical to an uncached run"
        (report_fingerprint (verify src_measure_v3))
        (report_fingerprint v3))

(* ------------------------------------------------------------------ *)
(* Pooled solve = naive reference                                     *)
(* ------------------------------------------------------------------ *)

(* The datatype programs the pooled solves are held to the naive
   reference on: safe, unsafe, and unsafe through an edited measure
   definition. *)
let elim_programs =
  [
    ("tree", src_tree_safe);
    ("tree-unsafe", src_tree_unsafe);
    ("measure-unsafe", src_measure_v2);
  ]

let test_elim_identity () =
  List.iter
    (fun (name, src) ->
      ignore
        (Elim_reference.check_reference (Elim_reference.system name src)))
    elim_programs

(* ------------------------------------------------------------------ *)
(* Daemon round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let start_server sock =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try
         let d = Server.default_config ~sock in
         Server.serve { d with Server.quiet = true }
       with _ -> ());
      Unix._exit 0
  | pid -> pid

let stop_server pid sock =
  (try Client.with_connection sock Client.shutdown with _ -> ());
  ignore (Unix.waitpid [] pid)

let with_server f =
  with_dir (fun base ->
      let sock = Filename.concat base "d.sock" in
      let pid = start_server sock in
      Fun.protect ~finally:(fun () -> stop_server pid sock) (fun () -> f sock))

let expect_verified = function
  | Protocol.Verified r -> r
  | Protocol.Rejected e ->
      Alcotest.failf "expected Verified, got [%s] %s" e.Protocol.ve_code
        e.Protocol.ve_message

let test_daemon_round_trip () =
  with_server (fun sock ->
      let c = Test_server.connect_when_up sock in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* The same warm process then verifies a measure-free program:
             the per-run table reset means the datatype programs'
             measures must not leak into its report. *)
          let plain = "let rec sum k = if k < 0 then 0 else sum (k - 1) + k" in
          let replies =
            Client.verify c
              (List.map
                 (fun (_, src, _) -> Protocol.request ~name:"adt.ml" src)
                 arm_programs
              @ [ Protocol.request ~name:"plain.ml" plain ])
          in
          match List.rev replies with
          | r_plain :: rev_adt
            when List.length rev_adt = List.length arm_programs ->
              List.iter2
                (fun (name, src, expect_safe) reply ->
                  let direct = verify src in
                  check_engaged name expect_safe direct;
                  check_string
                    (name ^ ": daemon report identical to direct run")
                    (report_fingerprint direct)
                    (report_fingerprint (expect_verified reply)))
                arm_programs (List.rev rev_adt);
              check_string "no measure leak into later requests"
                (report_fingerprint
                   (Pipeline.verify_string ~name:"plain.ml" plain))
                (report_fingerprint (expect_verified r_plain))
          | rs ->
              Alcotest.failf "expected %d replies, got %d"
                (List.length arm_programs + 1)
                (List.length rs)))

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let test_eval_adt () =
  let env =
    Liquid_eval.Eval.run_program
      (Parser.program_of_string
         "let rec size_of t =\n\
         \  match t with\n\
         \  | Leaf -> 0\n\
         \  | Node (l, x, r) -> 1 + size_of l + size_of r\n\
          let rec keys t =\n\
         \  match t with\n\
         \  | Leaf -> 0\n\
         \  | Node (Leaf, x, Leaf) -> x\n\
         \  | Node (l, x, r) -> keys l + x + keys r\n\
          let t = Node (Node (Leaf, 1, Leaf), 2, Node (Leaf, 3, Leaf))\n\
          let main = size_of t * 100 + keys t")
  in
  match Liquid_common.Ident.Map.find "main" env with
  | Liquid_eval.Eval.Vint n ->
      check_int "constructed values match and fold" 306 n
  | v -> Alcotest.failf "expected int, got %a" Liquid_eval.Eval.pp_value v

let tests =
  [
    Alcotest.test_case "tree inference" `Quick test_tree_inference;
    Alcotest.test_case "measure-free programs unchanged" `Quick
      test_measureless_programs_unchanged;
    Alcotest.test_case "explain cites measure axiom" `Quick
      test_unsafe_explain_cites_measure;
    Alcotest.test_case "pooled solve equals the naive reference" `Quick
      test_elim_identity;
    Alcotest.test_case "declcheck: unknown constructor" `Quick
      test_declcheck_unknown_ctor;
    Alcotest.test_case "declcheck: duplicate constructor" `Quick
      test_declcheck_duplicate_ctor;
    Alcotest.test_case "declcheck: non-structural recursion" `Quick
      test_declcheck_non_structural;
    Alcotest.test_case "declcheck: missing equation" `Quick
      test_declcheck_missing_equation;
    Alcotest.test_case "declcheck: diagnostics, not exceptions" `Quick
      test_declcheck_is_diagnostic_not_exception;
    Alcotest.test_case "pipeline rejects bad decls" `Quick
      test_pipeline_rejects_bad_decls;
    Alcotest.test_case "cache warm identity" `Quick test_cache_warm_identity;
    Alcotest.test_case "measure edit is cache-sound" `Quick
      test_measure_edit_is_cache_sound;
    Alcotest.test_case "unrelated edit reuses partitions" `Quick
      test_unrelated_edit_reuses_partitions;
    Alcotest.test_case "daemon round-trip" `Quick test_daemon_round_trip;
    Alcotest.test_case "eval constructors and match" `Quick test_eval_adt;
  ]
