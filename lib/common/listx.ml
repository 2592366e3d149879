(** List helpers missing from the standard library (OCaml 5.1 vintage). *)

(** [take n xs] is the first [n] elements of [xs] (all of [xs] if shorter). *)
let rec take n xs =
  match (n, xs) with
  | n, _ when n <= 0 -> []
  | _, [] -> []
  | n, x :: xs -> x :: take (n - 1) xs

let rec drop n xs =
  match (n, xs) with
  | n, xs when n <= 0 -> xs
  | _, [] -> []
  | n, _ :: xs -> drop (n - 1) xs

(** Deduplicate while preserving first-occurrence order; O(n log n). *)
let dedup_ordered (type a) ~(compare : a -> a -> int) (xs : a list) =
  let module S = Set.Make (struct
    type t = a

    let compare = compare
  end) in
  let _, rev =
    List.fold_left
      (fun (seen, acc) x ->
        if S.mem x seen then (seen, acc) else (S.add x seen, x :: acc))
      (S.empty, []) xs
  in
  List.rev rev
