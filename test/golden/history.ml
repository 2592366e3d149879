(* A report must not depend on what the process verified before.  Each
   input is verified in two children forked from this process, which
   has verified nothing: one verifies another program first, the other
   only the input.  The two must agree on the report without its
   [stats], and on the counters that follow the solver's queries
   ([n_smt_queries], [n_implication_checks], [n_explain_smt_queries]).
   Only the result cache's hit counters may differ: the warm child's
   cache holds the first program's answers.

   The inputs: each T1 program after its predecessor in [Programs.all],
   and each T1 mutant, with explanations, after its unmutated program.
   Exits non-zero on any difference. *)

module Pipeline = Liquid_driver.Pipeline
module Programs = Liquid_suite.Programs
module Runner = Liquid_suite.Runner
module Qualifier = Liquid_infer.Qualifier

type input = { file : string; source : string; options : Pipeline.options }

let program (b : Programs.benchmark) =
  {
    file = b.Programs.name ^ ".ml";
    source = b.Programs.source;
    options =
      { Pipeline.default with quals = Runner.qualifiers_of b; mine = false };
  }

let mutant (m : Programs.mutant) =
  let b = Programs.mutate m in
  let file = b.Programs.name ^ "-mutant.ml" in
  {
    file;
    source = b.Programs.source;
    options =
      {
        Pipeline.default with
        quals =
          Qualifier.defaults
          @ Qualifier.parse_string ~file b.Programs.extra_qualifiers;
        mine = false;
        explain = true;
        explain_limit = 64;
      };
  }

let verify i = Pipeline.verify_string ~options:i.options ~name:i.file i.source

let observe i =
  let r = verify i in
  let s = r.Pipeline.stats in
  Child.render ~file:i.file r
  ^ Fmt.str "n_smt_queries: %d\nn_implication_checks: %d\nn_explain_smt_queries: %d\n"
      s.Pipeline.n_smt_queries s.Pipeline.n_implication_checks
      s.Pipeline.n_explain_smt_queries

(* (what runs first, the input) *)
let pairs =
  (let rec after = function
     | a :: (b :: _ as rest) -> (program a, program b) :: after rest
     | _ -> []
   in
   after Programs.all)
  @ List.map
      (fun (m : Programs.mutant) -> (program m.Programs.bench, mutant m))
      Programs.mutants

let () =
  let differ =
    List.filter
      (fun (first, i) ->
        let warm =
          Child.isolated (fun () ->
              ignore (verify first);
              observe i)
        in
        let fresh = Child.isolated (fun () -> observe i) in
        let same = String.equal warm fresh in
        if not same then begin
          Printf.printf "%s reports differently after %s:\n" i.file first.file;
          let lines = String.split_on_char '\n' in
          let only label xs ys =
            List.iter
              (fun l -> if not (List.mem l ys) then Printf.printf "  %s: %s\n" label l)
              xs
          in
          only "after" (lines warm) (lines fresh);
          only "fresh" (lines fresh) (lines warm)
        end;
        not same)
      pairs
  in
  if differ <> [] then begin
    Printf.printf "%d of %d inputs report differently after another program\n"
      (List.length differ) (List.length pairs);
    exit 1
  end
