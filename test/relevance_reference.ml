(* The relevance pruning that lib/smt/solver.ml's union–find index
   replaced, kept verbatim as the reference its tests hold the index
   to: per query, an inverted variable → hypothesis table and a
   breadth-first closure from the seed's free variables.  Returns the
   indices (into [hyps]) retained against [seed]; ground hypotheses are
   always retained. *)

open Liquid_logic

let pred_vars p = List.map fst (Pred.free_vars p)

let prune_hyps_idx (hyps : Pred.t list) (seed : Pred.t) : int list =
  let vars = Array.of_list (List.map pred_vars hyps) in
  let n = Array.length vars in
  let var_hyps : (Liquid_common.Ident.t, int list) Hashtbl.t =
    Hashtbl.create (2 * n)
  in
  Array.iteri
    (fun i vs ->
      List.iter
        (fun v ->
          Hashtbl.replace var_hyps v
            (i :: (try Hashtbl.find var_hyps v with Not_found -> [])))
        vs)
    vars;
  let keep = Array.make n false in
  let seen : (Liquid_common.Ident.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let visit v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      Queue.add v queue
    end
  in
  List.iter (fun (x, _) -> visit x) (Pred.free_vars seed);
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    match Hashtbl.find_opt var_hyps v with
    | None -> ()
    | Some is ->
        List.iter
          (fun i ->
            if not (keep.(i)) then begin
              keep.(i) <- true;
              List.iter visit vars.(i)
            end)
          is
  done;
  let kept_idx = ref [] in
  for i = n - 1 downto 0 do
    if vars.(i) = [] || keep.(i) then kept_idx := i :: !kept_idx
  done;
  !kept_idx

(* The prepared query for [kept /\ hyps => goal], built from the
   retained hypotheses, and their indices. *)
let prepare ?(kept : Pred.t list = []) (hyps : Pred.t list) (goal : Pred.t) :
    Pred.t * int list =
  let idx = prune_hyps_idx hyps (Pred.conj (goal :: kept)) in
  let arr = Array.of_list hyps in
  let pruned = List.map (fun i -> arr.(i)) idx @ kept in
  (Pred.conj (Pred.not_ goal :: pruned), idx)
