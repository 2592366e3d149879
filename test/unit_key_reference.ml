(* The partition cache's unit key as it was computed before
   environments carried digest chains, kept as the reference the digest
   keys are held to.  It renders in full what the digest key digests:
   every constraint's environment (each binding with its refinement
   type, then each guard), the wf constraints of the unit's κs, the
   initial qualifier instances of those κs with their pattern names,
   and the final solutions of the κs of the units it depends on. *)

open Liquid_logic
open Liquid_infer
module KMap = Constr.KMap

let pp_env_sig ppf (e : Constr.env) =
  List.iter
    (fun (x, t) ->
      Fmt.pf ppf "%a:%a;" Liquid_common.Ident.pp x Rtype.pp t)
    (Constr.bindings e);
  Fmt.pf ppf "|";
  List.iter (fun g -> Fmt.pf ppf "%a;" Pred.pp g) (Constr.guards e)

let unit_signature (wfs : Constr.wf list) (p : Constr.partition) : string =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 1_000_000;
  List.iter
    (fun (c : Constr.sub) ->
      Fmt.pf ppf "sub[%d]%a⊢%a<:%a^%a@%a\n" c.Constr.sub_id pp_env_sig
        c.Constr.sub_env Rtype.pp_refinement c.Constr.lhs Constr.pp_rhs
        c.Constr.rhs Sort.pp c.Constr.vv_sort Constr.pp_origin c.Constr.origin)
    p.Constr.part_subs;
  List.iter
    (fun (w : Constr.wf) ->
      if List.mem w.Constr.wf_kvar p.Constr.part_kvars then
        Fmt.pf ppf "wf k%d %a : %a\n" w.Constr.wf_kvar pp_env_sig
          w.Constr.wf_env Sort.pp w.Constr.wf_sort)
    wfs;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The keys of every unit of [plan], by unit id: [initial] is the
   whole system's initial assignment and [solution] its final one,
   whose restriction to a dependency's κs is what that dependency's
   merge left for the unit. *)
let keys ~(initial : Fixpoint.candidates) ~(solution : Constr.solution)
    (wfs : Constr.wf list) (plan : Constr.plan) : string array =
  let parts = plan.Constr.parts in
  Array.map
    (fun (p : Constr.partition) ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf (unit_signature wfs p);
      Buffer.add_char buf '\x01';
      List.iter
        (fun k ->
          match KMap.find_opt k initial with
          | None -> ()
          | Some ps ->
              Buffer.add_string buf (Fmt.str "k%d:" k);
              List.iter
                (fun (q, names) ->
                  Buffer.add_string buf
                    (Fmt.str "%a{%s};" Pred.pp q
                       (String.concat "," (Fixpoint.SSet.elements names))))
                ps)
        p.Constr.part_kvars;
      Buffer.add_char buf '\x01';
      List.iter
        (fun d ->
          List.iter
            (fun k ->
              Buffer.add_string buf
                (Fmt.str "k%d=[%a];" k
                   Fmt.(list ~sep:(any " && ") Pred.pp)
                   (Constr.sol_find solution k)))
            parts.(d).Constr.part_kvars)
        p.Constr.part_deps;
      Digest.to_hex (Digest.string (Buffer.contents buf)))
    parts
