(** The paper's benchmark suite: NanoML ports of the DML array-bounds
    programs evaluated in PLDI 2008 (Figure "Results" of the paper), plus
    the overview examples whose inferred types the paper displays.

    Each benchmark records:
    - the NanoML source (with a [main] exercising it, so the interpreter
      can execute it in tests);
    - extra qualifier declarations beyond the shared defaults (the paper
      reports the number of qualifiers each program needs);
    - the annotation burden DML imposed, as reported by the paper
      (baseline column of the results table; DML itself is not runnable
      here — see DESIGN.md).

    The [dml_annot] figures are the paper's reported counts of manually
    written DML dependent-annotation characters, used only for the
    baseline column of the reproduced table. *)

type benchmark = {
  name : string;
  description : string;
  source : string;
  extra_qualifiers : string; (* qualifier declarations, possibly empty *)
  dml_annot : int; (* paper-reported DML annotation size (chars) *)
  paper_lines : int; (* paper-reported LOC, for reference *)
}

(* ------------------------------------------------------------------ *)
(* dotprod — dot product of two vectors; the inferred precondition     *)
(* relates the two array lengths.                                      *)
(* ------------------------------------------------------------------ *)

let dotprod =
  {
    name = "dotprod";
    description = "dot product; infers len v2 >= len v1 precondition";
    source =
      {|
let dotprod v1 v2 =
  let rec loop i sum =
    if i < Array.length v1 then
      loop (i + 1) (sum + v1.(i) * v2.(i))
    else sum
  in
  loop 0 0

let main =
  let a = Array.make 16 3 in
  let b = Array.make 16 4 in
  assert (Array.length a <= Array.length b);
  dotprod a b
|};
    extra_qualifiers = "";
    dml_annot = 92;
    paper_lines = 7;
  }

(* ------------------------------------------------------------------ *)
(* bcopy — block copy into a buffer at least as large as the source.   *)
(* ------------------------------------------------------------------ *)

let bcopy =
  {
    name = "bcopy";
    description = "array block copy; infers len dst >= len src";
    source =
      {|
let bcopy src dst =
  let rec loop i =
    if i < Array.length src then begin
      dst.(i) <- src.(i);
      loop (i + 1)
    end else ()
  in
  loop 0

let main =
  let a = Array.make 10 7 in
  let b = Array.make 20 0 in
  assert (Array.length a <= Array.length b);
  bcopy a b;
  b.(9)
|};
    extra_qualifiers = "qualif GeLenLen(v) : len v >= len _";
    dml_annot = 105;
    paper_lines = 12;
  }

(* ------------------------------------------------------------------ *)
(* bsearch — binary search; midpoint division reasoning.               *)
(* ------------------------------------------------------------------ *)

let bsearch =
  {
    name = "bsearch";
    description = "binary search with midpoint division";
    source =
      {|
let bsearch key vec =
  let rec look lo hi =
    if lo <= hi then begin
      let m = (lo + hi) / 2 in
      let x = vec.(m) in
      if x < key then look (m + 1) hi
      else if x > key then look lo (m - 1)
      else m
    end else (0 - 1)
  in
  look 0 (Array.length vec - 1)

let main =
  let v = Array.make 8 3 in
  let r = bsearch 3 v in
  assert (r < Array.length v)
|};
    extra_qualifiers = "";
    dml_annot = 157;
    paper_lines = 24;
  }

(* ------------------------------------------------------------------ *)
(* queens — n-queens; board writes bounded by the inferred invariants  *)
(* relating rows, columns and the board length.                        *)
(* ------------------------------------------------------------------ *)

let queens =
  {
    name = "queens";
    description = "n-queens solver counting solutions";
    source =
      {|
let queens size =
  let board = Array.make size 0 in
  let rec ok r c i =
    if i < r then begin
      let ci = board.(i) in
      if ci = c then false
      else if abs (ci - c) = r - i then false
      else ok r c (i + 1)
    end else true
  in
  let rec solve r =
    if r = size then 1
    else begin
      let rec try_col c acc =
        if c < size then begin
          if ok r c 0 then begin
            board.(r) <- c;
            try_col (c + 1) (acc + solve (r + 1))
          end else try_col (c + 1) acc
        end else acc
      in
      try_col 0 0
    end
  in
  solve 0

let main =
  let n = queens 6 in
  assert (0 <= n);
  n
|};
    extra_qualifiers = "";
    dml_annot = 199;
    paper_lines = 29;
  }

(* ------------------------------------------------------------------ *)
(* isort — in-place insertion sort.                                    *)
(* ------------------------------------------------------------------ *)

let isort =
  {
    name = "isort";
    description = "in-place insertion sort on an array";
    source =
      {|
let isort a =
  let n = Array.length a in
  let rec insert j =
    if 0 < j then begin
      let x = a.(j - 1) in
      let y = a.(j) in
      if y < x then begin
        a.(j) <- x;
        a.(j - 1) <- y;
        insert (j - 1)
      end else ()
    end else ()
  in
  let rec walk i =
    if i < n then begin
      insert i;
      walk (i + 1)
    end else ()
  in
  walk 0

let main =
  let a = Array.make 10 0 in
  let rec fill i =
    if i < 10 then begin
      a.(i) <- 10 - i;
      fill (i + 1)
    end else ()
  in
  fill 0;
  isort a;
  assert (Array.length a = 10);
  a.(0)
|};
    extra_qualifiers = "";
    dml_annot = 235;
    paper_lines = 33;
  }

(* ------------------------------------------------------------------ *)
(* tower — towers of Hanoi with three explicit peg arrays; peg heights *)
(* obey the 3-way conservation invariant supplied as a qualifier.      *)
(* ------------------------------------------------------------------ *)

let tower =
  {
    name = "tower";
    description = "towers of Hanoi on explicit peg arrays";
    source =
      {|
let tower n =
  let pa = Array.make n 0 in
  let pb = Array.make n 0 in
  let pc = Array.make n 0 in
  let rec fill i =
    if i < n then begin
      pa.(i) <- n - i;
      fill (i + 1)
    end else ()
  in
  fill 0;
  let rec hanoi s d o hs hd ho k =
    if k = 0 then ()
    else begin
      hanoi s o d hs ho hd (k - 1);
      d.(hd) <- s.(hs - k);
      hanoi o d s (ho + k - 1) (hd + 1) (hs - k) (k - 1)
    end
  in
  hanoi pa pb pc n 0 0 n;
  pb.(n - 1)

let main =
  let top = tower 5 in
  top
|};
    extra_qualifiers = "qualif SumBound(v) : v + _A <= len _B";
    dml_annot = 242;
    paper_lines = 36;
  }

(* ------------------------------------------------------------------ *)
(* matmult — matrix multiplication over arrays of arrays; row lengths  *)
(* are carried by the element templates of the outer arrays.           *)
(* ------------------------------------------------------------------ *)

let matmult =
  {
    name = "matmult";
    description = "square matrix multiplication (arrays of arrays)";
    source =
      {|
let make_matrix n =
  let m = Array.make n (Array.make n 0) in
  let rec fill i =
    if i < n then begin
      m.(i) <- Array.make n 0;
      fill (i + 1)
    end else ()
  in
  fill 0;
  m

let matmult n a b c =
  let rec loop_k i j k acc =
    if k < n then begin
      let ai = a.(i) in
      let bk = b.(k) in
      loop_k i j (k + 1) (acc + ai.(k) * bk.(j))
    end else acc
  in
  let rec loop_j i j =
    if j < n then begin
      let ci = c.(i) in
      ci.(j) <- loop_k i j 0 0;
      loop_j i (j + 1)
    end else ()
  in
  let rec loop_i i =
    if i < n then begin
      loop_j i 0;
      loop_i (i + 1)
    end else ()
  in
  loop_i 0

let main =
  let n = 4 in
  let a = make_matrix n in
  let b = make_matrix n in
  let c = make_matrix n in
  let rec init i =
    if i < n then begin
      let ai = a.(i) in
      let bi = b.(i) in
      ai.(i) <- 1;
      bi.(i) <- 2;
      init (i + 1)
    end else ()
  in
  init 0;
  matmult n a b c;
  let c0 = c.(0) in
  assert (Array.length c0 = n);
  c0.(0)
|};
    extra_qualifiers = "";
    dml_annot = 334;
    paper_lines = 43;
  }

(* ------------------------------------------------------------------ *)
(* heapsort — sift-down heapsort; child index arithmetic [2i+1].       *)
(* ------------------------------------------------------------------ *)

let heapsort =
  {
    name = "heapsort";
    description = "in-place heapsort with sift-down";
    source =
      {|
let heapsort a =
  let n = Array.length a in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec sift root bound =
    let child = 2 * root + 1 in
    if child < bound then begin
      let c2 = child + 1 in
      let best = if c2 < bound then begin
          if a.(c2) > a.(child) then c2 else child
        end else child
      in
      if a.(best) > a.(root) then begin
        swap best root;
        sift best bound
      end else ()
    end else ()
  in
  let rec build i =
    if 0 <= i then begin
      sift i n;
      build (i - 1)
    end else ()
  in
  build (n / 2);
  let rec drain bound =
    if 1 < bound then begin
      swap 0 (bound - 1);
      sift 0 (bound - 1);
      drain (bound - 1)
    end else ()
  in
  drain n

let main =
  let a = Array.make 12 0 in
  let rec fill i =
    if i < 12 then begin
      a.(i) <- 100 - 7 * i;
      fill (i + 1)
    end else ()
  in
  fill 0;
  heapsort a;
  a.(11) - a.(0)
|};
    extra_qualifiers = "";
    dml_annot = 410;
    paper_lines = 84;
  }

(* ------------------------------------------------------------------ *)
(* fft — iterative radix-2 FFT kernel (integer butterflies): the       *)
(* bit-reversal permutation and the three-deep butterfly loops exercise*)
(* division-by-two invariants and guard-derived bounds.  The paper's   *)
(* DML original uses floats for twiddle factors; NanoML has no floats, *)
(* so the port keeps the exact access pattern with integer butterflies *)
(* (see DESIGN.md, substitutions).                                     *)
(* ------------------------------------------------------------------ *)

let fft =
  {
    name = "fft";
    description = "radix-2 FFT access pattern (bit reversal + butterflies)";
    source = {|let fft re im =
  let n = Array.length re in
  let rec rev_index i acc bits =
    if 0 < bits then rev_index (i / 2) (acc * 2 + i mod 2) (bits - 1)
    else acc
  in
  let rec bits_of k acc =
    if 1 < k then bits_of (k / 2) (acc + 1) else acc
  in
  let nbits = bits_of n 0 in
  let rec bitrev i =
    if i < n then begin
      let j = rev_index i 0 nbits in
      (if i < j then begin
         if j < n then begin
           let tr = re.(i) in
           re.(i) <- re.(j);
           re.(j) <- tr;
           let ti = im.(i) in
           im.(i) <- im.(j);
           im.(j) <- ti
         end else ()
       end else ());
      bitrev (i + 1)
    end else ()
  in
  bitrev 0;
  let rec stages le =
    if 1 < le then begin
      let half = le / 2 in
      let rec outer j =
        if j < half then begin
          let rec inner i =
            if i + half < n then begin
              let a = re.(i) in
              let b = re.(i + half) in
              re.(i) <- a + b;
              re.(i + half) <- a - b;
              let ai = im.(i) in
              let bi = im.(i + half) in
              im.(i) <- ai + bi;
              im.(i + half) <- ai - bi;
              inner (i + le)
            end else ()
          in
          inner j;
          outer (j + 1)
        end else ()
      in
      outer 0;
      stages half
    end else ()
  in
  stages n

let main =
  let re = Array.make 16 1 in
  let im = Array.make 16 0 in
  fft re im;
  re.(0)
|};
    extra_qualifiers = "";
    dml_annot = 575;
    paper_lines = 107;
  }

(* ------------------------------------------------------------------ *)
(* simplex — fraction-free simplex pivoting on an (m+1) x (n+1)        *)
(* tableau of arrays of arrays.                                        *)
(* ------------------------------------------------------------------ *)

let simplex =
  {
    name = "simplex";
    description = "integer simplex pivoting on a dense tableau";
    source = {|let make_tableau rows cols =
  let t = Array.make rows (Array.make cols 0) in
  let rec fill i =
    if i < rows then begin
      t.(i) <- Array.make cols 0;
      fill (i + 1)
    end else ()
  in
  fill 0;
  t

let simplex m n a =
  (* a is an (m+1) x (n+1) tableau: m constraint rows plus the objective
     row, n structural columns plus the constant column. *)
  let rec find_col j =
    if j < n then begin
      let obj = a.(m) in
      if obj.(j) < 0 then j else find_col (j + 1)
    end else 0 - 1
  in
  let rec find_row j i best =
    if i < m then begin
      let row = a.(i) in
      if row.(j) > 0 then begin
        if best < 0 then find_row j (i + 1) i
        else begin
          let rb = a.(best) in
          if row.(n) * rb.(j) < rb.(n) * row.(j) then find_row j (i + 1) i
          else find_row j (i + 1) best
        end
      end else find_row j (i + 1) best
    end else best
  in
  let rec eliminate p j i =
    if i <= m then begin
      if i = p then eliminate p j (i + 1)
      else begin
        let rowi = a.(i) in
        let rowp = a.(p) in
        let f = rowi.(j) in
        let d = rowp.(j) in
        let rec cols c =
          if c <= n then begin
            rowi.(c) <- rowi.(c) * d - rowp.(c) * f;
            cols (c + 1)
          end else ()
        in
        cols 0;
        eliminate p j (i + 1)
      end
    end else ()
  in
  let rec pivot_loop fuel =
    if 0 < fuel then begin
      let j = find_col 0 in
      if 0 <= j then begin
        let p = find_row j 0 (0 - 1) in
        if 0 <= p then begin
          eliminate p j 0;
          pivot_loop (fuel - 1)
        end else ()
      end else ()
    end else ()
  in
  pivot_loop (m + n)

let main =
  let m = 3 in
  let n = 4 in
  let a = make_tableau (m + 1) (n + 1) in
  let obj = a.(m) in
  obj.(0) <- 0 - 3;
  obj.(1) <- 0 - 2;
  let r0 = a.(0) in
  r0.(0) <- 2; r0.(1) <- 1; r0.(n) <- 18;
  let r1 = a.(1) in
  r1.(0) <- 2; r1.(1) <- 3; r1.(n) <- 42;
  let r2 = a.(2) in
  r2.(0) <- 3; r2.(1) <- 1; r2.(n) <- 24;
  simplex m n a;
  let final = a.(m) in
  final.(n)
|};
    extra_qualifiers = "qualif DimRow(v) : len v = _ + 1";
    dml_annot = 681;
    paper_lines = 118;
  }

(* ------------------------------------------------------------------ *)
(* gauss — fraction-free gaussian elimination with partial pivoting on *)
(* an n x (n+1) augmented matrix.                                      *)
(* ------------------------------------------------------------------ *)

let gauss =
  {
    name = "gauss";
    description = "gaussian elimination with row pivoting";
    source = {|let make_tableau rows cols =
  let t = Array.make rows (Array.make cols 0) in
  let rec fill i =
    if i < rows then begin
      t.(i) <- Array.make cols 0;
      fill (i + 1)
    end else ()
  in
  fill 0;
  t

let swap_rows a i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let gauss n a =
  (* a is an n x (n+1) augmented matrix; integer fraction-free forward
     elimination followed by a back-substitution sweep. *)
  let rec find_pivot k i =
    if i < n then begin
      let row = a.(i) in
      if row.(k) <> 0 then i else find_pivot k (i + 1)
    end else 0 - 1
  in
  let rec elim_row k i =
    if i < n then begin
      let rowi = a.(i) in
      let rowk = a.(k) in
      let f = rowi.(k) in
      let d = rowk.(k) in
      let rec cols j =
        if j <= n then begin
          rowi.(j) <- rowi.(j) * d - rowk.(j) * f;
          cols (j + 1)
        end else ()
      in
      cols k;
      elim_row k (i + 1)
    end else ()
  in
  let rec forward k =
    if k < n then begin
      let p = find_pivot k k in
      if 0 <= p then begin
        (if p < n then swap_rows a k p else ());
        elim_row k (k + 1);
        forward (k + 1)
      end else forward (k + 1)
    end else ()
  in
  forward 0

let main =
  let n = 3 in
  let a = make_tableau n (n + 1) in
  let r0 = a.(0) in
  r0.(0) <- 2; r0.(1) <- 1; r0.(2) <- 1; r0.(3) <- 5;
  let r1 = a.(1) in
  r1.(0) <- 4; r1.(1) <- 1; r1.(2) <- 0; r1.(3) <- 3;
  let r2 = a.(2) in
  r2.(0) <- 0 - 2; r2.(1) <- 2; r2.(2) <- 1; r2.(3) <- 1;
  gauss n a;
  let last = a.(n - 1) in
  last.(n)
|};
    extra_qualifiers = "qualif DimRow(v) : len v = _ + 1";
    dml_annot = 723;
    paper_lines = 142;
  }

(** The full suite, in the paper's table order. *)
let all : benchmark list =
  [
    dotprod; bcopy; bsearch; queens; isort; tower; matmult; heapsort; fft;
    simplex; gauss;
  ]

let find name = List.find (fun b -> b.name = name) all

type mutant = { bench : benchmark; bug : string; what : string; with_ : string }

let mutate m =
  let source =
    Str.global_replace (Str.regexp_string m.what) m.with_ m.bench.source
  in
  if source = m.bench.source then
    invalid_arg (Printf.sprintf "%s mutant: %S does not occur" m.bench.name m.what);
  { m.bench with source }

let mutants =
  let mk bench bug (what, with_) = { bench; bug; what; with_ } in
  [
    mk bcopy "loop bound uses dst" ("i < Array.length src", "i <= Array.length src");
    mk isort "insert accesses a.(j) without guard" ("if 0 < j", "if 0 <= j");
    mk queens "termination test off by one" ("if r = size then 1", "if r = size + 1 then 1");
    mk heapsort "second child bound check" ("if c2 < bound", "if c2 <= bound");
    mk matmult "k loop overruns" ("if k < n then", "if k <= n then");
    mk gauss "column sweep overruns" ("if j <= n", "if j <= n + 1");
    mk tower "source height off by one" ("s.(hs - k)", "s.(hs - k + 1)");
    mk fft "butterfly guard dropped" ("if i + half < n", "if i < n");
  ]
