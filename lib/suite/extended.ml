(** Extended benchmark suite: programs beyond the paper's table,
    exercising idioms its evaluation motivates — modular arithmetic
    indexing, triangular updates, flag arrays, two-array scanning,
    rectangular matrices and memoization.  Each verifies with the default
    qualifiers (plus the listed extras) and runs under the reference
    interpreter in the tests. *)

type benchmark = Programs.benchmark = {
  name : string;
  description : string;
  source : string;
  extra_qualifiers : string;
  dml_annot : int; (* unused here; 0 *)
  paper_lines : int; (* unused here; 0 *)
}

let mk name description ?(extra_qualifiers = "") source =
  { name; description; source; extra_qualifiers; dml_annot = 0; paper_lines = 0 }

(* -- ring buffer: modular index arithmetic ---------------------------- *)

let queue =
  mk "queue" "bounded queue over a ring buffer (mod indexing)"
    {|
let enqueue buf head count x =
  let cap = Array.length buf in
  if count < cap then begin
    let tail = (head + count) mod cap in
    (if 0 < cap then buf.(tail) <- x else ());
    count + 1
  end else count

let dequeue buf head count =
  let cap = Array.length buf in
  if 0 < count then begin
    if head < cap then buf.(head) else 0
  end else 0

let main =
  let q = Array.make 8 0 in
  let c = enqueue q 0 0 42 in
  let c2 = enqueue q 0 c 43 in
  assert (c2 <= Array.length q);
  dequeue q 0 c2
|}

(* -- pascal: triangular in-place updates ------------------------------- *)

let pascal =
  mk "pascal" "Pascal's triangle row, updated right-to-left in place"
    ~extra_qualifiers:"qualif DimRow(v) : len v = _ + 1"
    {|
let pascal n =
  let row = Array.make (n + 1) 0 in
  row.(0) <- 1;
  let rec next r =
    if r <= n then begin
      let rec update j =
        if 0 < j then begin
          (if j <= n then row.(j) <- row.(j) + row.(j - 1) else ());
          update (j - 1)
        end else ()
      in
      update r;
      next (r + 1)
    end else ()
  in
  next 1;
  row

let main =
  let r = pascal 6 in
  assert (Array.length r = 7);
  r.(3)
|}

(* -- sieve: flag array with stride marking ------------------------------ *)

let sieve =
  mk "sieve" "sieve of Eratosthenes on a boolean flag array"
    {|
let sieve n =
  let flags = Array.make n true in
  (if 0 < n then flags.(0) <- false else ());
  (if 1 < n then flags.(1) <- false else ());
  let rec mark p step =
    if p < n then begin
      flags.(p) <- false;
      mark (p + step) step
    end else ()
  in
  let rec scan p =
    if p < n then begin
      (if flags.(p) then mark (p + p) p else ());
      scan (p + 1)
    end else ()
  in
  scan 2;
  let rec count i acc =
    if i < n then begin
      if flags.(i) then count (i + 1) (acc + 1) else count (i + 1) acc
    end else acc
  in
  count 0 0

let main =
  let primes = sieve 30 in
  assert (0 <= primes);
  primes
|}

(* -- selection sort: nested scans with carried best index ---------------- *)

let selsort =
  mk "selsort" "in-place selection sort (carried minimum index)"
    {|
let selsort a =
  let n = Array.length a in
  let rec min_from i j best =
    if j < n then begin
      if a.(j) < a.(best) then min_from i (j + 1) j
      else min_from i (j + 1) best
    end else best
  in
  let rec outer i =
    if i < n then begin
      let m = min_from i (i + 1) i in
      (if m < n then begin
         let t = a.(i) in
         a.(i) <- a.(m);
         a.(m) <- t
       end else ());
      outer (i + 1)
    end else ()
  in
  outer 0

let main =
  let a = Array.make 10 0 in
  let rec fill i =
    if i < 10 then begin
      a.(i) <- 10 - i;
      fill (i + 1)
    end else ()
  in
  fill 0;
  selsort a;
  a.(0)
|}

(* -- substring search: two-array scanning with offset sums ---------------- *)

let strmatch =
  mk "strmatch" "naive substring search over char-as-int arrays"
    {|
let find_sub text pat =
  let n = Array.length text in
  let m = Array.length pat in
  let rec matches i j =
    if j < m then begin
      if i + j < n then begin
        if text.(i + j) = pat.(j) then matches i (j + 1) else false
      end else false
    end else true
  in
  let rec scan i =
    if i < n then begin
      if matches i 0 then i else scan (i + 1)
    end else 0 - 1
  in
  scan 0

let main =
  let text = Array.make 20 1 in
  let pat = Array.make 3 1 in
  let r = find_sub text pat in
  assert (r < Array.length text);
  r
|}

(* -- transpose: rectangular matrices -------------------------------------- *)

let transpose =
  mk "transpose" "rectangular matrix transpose (rows x cols -> cols x rows)"
    {|
let make_matrix rows cols =
  let m = Array.make rows (Array.make cols 0) in
  let rec fill i =
    if i < rows then begin
      m.(i) <- Array.make cols 0;
      fill (i + 1)
    end else ()
  in
  fill 0;
  m

let transpose rows cols m =
  let t = make_matrix cols rows in
  let rec go i =
    if i < rows then begin
      let mi = m.(i) in
      let rec inner j =
        if j < cols then begin
          let tj = t.(j) in
          tj.(i) <- mi.(j);
          inner (j + 1)
        end else ()
      in
      inner 0;
      go (i + 1)
    end else ()
  in
  go 0;
  t

let main =
  let m = make_matrix 3 5 in
  let r0 = m.(0) in
  r0.(4) <- 9;
  let t = transpose 3 5 m in
  let t4 = t.(4) in
  t4.(0)
|}

(* -- memoized fibonacci: table indexed by the recursion argument ----------- *)

let fibmemo =
  mk "fibmemo" "bottom-up memoized fibonacci over an (n+1) table"
    ~extra_qualifiers:"qualif DimRow(v) : len v = _ + 1"
    {|
let fib n =
  let memo = Array.make (n + 1) (0 - 1) in
  (if 0 <= n then memo.(0) <- 0 else ());
  (if 1 <= n then memo.(1) <- 1 else ());
  let rec go i =
    if i <= n then begin
      memo.(i) <- memo.(i - 1) + memo.(i - 2);
      go (i + 1)
    end else ()
  in
  go 2;
  memo.(n)

let main = fib 15
|}

let all : benchmark list =
  [ queue; pascal; sieve; selsort; strmatch; transpose; fibmemo ]

let find name = List.find (fun b -> b.name = name) all

let mutants =
  let mk bench bug (what, with_) = { Programs.bench; bug; what; with_ } in
  [
    mk queue "wrong modulus" ("(head + count) mod cap", "(head + count) mod (cap + 1)");
    mk pascal "seed written past the row" ("row.(0) <- 1;", "row.(n + 1) <- 1;");
    mk sieve "marks one stride ahead"
      ( "flags.(p) <- false;\n      mark (p + step) step",
        "flags.(p + step) <- false;\n      mark (p + step) step" );
    mk strmatch "missing window guard" ("if i + j < n then begin", "if i < n then begin");
    mk transpose "swapped dimensions"
      ("let t = make_matrix cols rows in", "let t = make_matrix rows cols in");
    mk fibmemo "table one too small" ("Array.make (n + 1)", "Array.make n");
  ]
