open Ssj_prob
open Helpers

let test_pair_point_masses () =
  let p = Convolve.pair (Pmf.point 3) (Pmf.point 4) in
  check_float "sum of points" 1.0 (Pmf.prob p 7)

let test_pair_dice () =
  (* Two fair dice: the textbook triangle distribution. *)
  let die = Dist.uniform ~lo:1 ~hi:6 in
  let sum = Convolve.pair die die in
  check_float "p(2)" (1.0 /. 36.0) (Pmf.prob sum 2);
  check_float "p(7)" (6.0 /. 36.0) (Pmf.prob sum 7);
  check_float "p(12)" (1.0 /. 36.0) (Pmf.prob sum 12);
  check_float "total" 1.0 (Pmf.total sum)

let test_means_add () =
  let a = Pmf.of_assoc [ (0, 0.25); (4, 0.75) ] in
  let b = Pmf.of_assoc [ (-2, 0.5); (2, 0.5) ] in
  let c = Convolve.pair a b in
  check_float ~eps:1e-9 "mean adds" (Pmf.mean a +. Pmf.mean b) (Pmf.mean c);
  check_float ~eps:1e-9 "variance adds"
    (Pmf.variance a +. Pmf.variance b)
    (Pmf.variance c)

let same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y

(* Bit equality of [Pr{X = v}] at every v of either support. *)
let bit_equal a b =
  let lo = min (Pmf.lo a) (Pmf.lo b) and hi = max (Pmf.hi a) (Pmf.hi b) in
  let rec go v = v > hi || (same_bits (Pmf.prob a v) (Pmf.prob b v) && go (v + 1)) in
  go lo

(* Level n by a plain chain of [pair]s from the step. *)
let chained step n =
  let p = ref step in
  for _ = 2 to n do
    p := Convolve.pair !p step
  done;
  !p

let test_table_bits_any_order () =
  (* Bit equality, not a tolerance: every level is [pair level_(n-1) step]
     whichever level is asked for first. *)
  let step = Dist.discretized_normal ~sigma:1.0 ~bound:4 in
  List.iter
    (fun order ->
      let table = Convolve.Table.create step in
      List.iter
        (fun n ->
          check_bool
            (Printf.sprintf "level %d" n)
            true
            (bit_equal (Convolve.Table.get table n) (chained step n)))
        order;
      check_bool "level 1 is the step" true
        (Convolve.Table.get table 1 == step))
    [ [ 1; 2; 3; 4; 5 ]; [ 5; 2; 4; 1; 3 ]; [ 40; 7; 41; 1; 100 ] ]

let test_nfold_equals_repeated_pair () =
  (* The 4-fold convolution read from the memo table is, bit for bit, the
     hand-written chain of pairs. *)
  let step = Pmf.of_assoc [ (-1, 0.5); (1, 0.5) ] in
  let direct = Convolve.Table.get (Convolve.Table.create step) 4 in
  let manual =
    Convolve.pair (Convolve.pair (Convolve.pair step step) step) step
  in
  check_bool "4-fold equals chained pairs" true (bit_equal direct manual)

let test_table_binomial () =
  (* n-fold convolution of a 0/1 coin: binomial. *)
  let step = Pmf.of_assoc [ (0, 0.5); (1, 0.5) ] in
  let p = Convolve.Table.get (Convolve.Table.create step) 5 in
  check_float ~eps:1e-12 "binomial(5, 0.5) at 2" (10.0 /. 32.0) (Pmf.prob p 2)

let gen_small_pmf =
  QCheck2.Gen.(
    let* lo = int_range (-5) 5 in
    let* n = int_range 1 6 in
    let* weights = list_repeat n (float_range 0.1 5.0) in
    return (Pmf.create ~lo (Array.of_list weights)))

let prop_commutative =
  qcheck ~count:100 "pair is commutative"
    QCheck2.Gen.(tup2 gen_small_pmf gen_small_pmf)
    (fun (a, b) -> Pmf.equal (Convolve.pair a b) (Convolve.pair b a))

let prop_mass_preserved =
  qcheck ~count:100 "pair preserves mass"
    QCheck2.Gen.(tup2 gen_small_pmf gen_small_pmf)
    (fun (a, b) -> Float.abs (Pmf.total (Convolve.pair a b) -. 1.0) < 1e-9)

(* --- the compensated normalisation vs the plain one ------------------ *)

(* Total-variation distance over the union of supports. *)
let tv a b =
  let lo = min (Pmf.lo a) (Pmf.lo b) and hi = max (Pmf.hi a) (Pmf.hi b) in
  let acc = ref 0.0 in
  for v = lo to hi do
    acc := !acc +. Float.abs (Pmf.prob a v -. Pmf.prob b v)
  done;
  0.5 *. !acc

(* Supports from a point mass up to a few hundred cells, with heavily
   skewed weights (w^6 spans ~5 orders of magnitude) to stress the
   renormalisation. *)
let gen_any_width_pmf =
  QCheck2.Gen.(
    let skewed = map (fun w -> (w ** 6.0) +. 1e-6) (float_range 0.0 1.0) in
    let* lo = int_range (-30) 30 in
    oneof
      [
        return (Pmf.point lo);
        (let* n = int_range 1 8 in
         let* weights = list_repeat n skewed in
         return (Pmf.create ~lo (Array.of_list weights)));
        (let* n = int_range 40 200 in
         let* weights = list_repeat n skewed in
         return (Pmf.create ~lo (Array.of_list weights)));
      ])

let prop_pair_matches_naive_oracle =
  (* [pair] renormalises by a compensated total, [pair_naive] by a plain
     one; the two must agree on every width. *)
  qcheck ~count:150 "pair = naive oracle within 1e-9 TV"
    QCheck2.Gen.(tup2 gen_any_width_pmf gen_any_width_pmf)
    (fun (a, b) -> tv (Convolve.pair a b) (Convolve.pair_naive a b) < 1e-9)

(* Levels 1..n of a left fold of the naive oracle. *)
let iterated_naive step n =
  let levels = Array.make n step in
  for k = 1 to n - 1 do
    levels.(k) <- Convolve.pair_naive levels.(k - 1) step
  done;
  levels

let prop_table_matches_iterated_oracle =
  qcheck ~count:30 "table = iterated pair_naive within 1e-9 TV"
    QCheck2.Gen.(tup2 gen_small_pmf (int_range 1 40))
    (fun (step, n) ->
      tv
        (Convolve.Table.get (Convolve.Table.create step) n)
        (iterated_naive step n).(n - 1)
      < 1e-9)

let test_table_deep_levels_normalised () =
  (* Deep memo levels must stay unit-mass (compensated renormalisation)
     and agree with the iterated naive oracle. *)
  let step = Dist.discretized_normal ~sigma:1.5 ~bound:6 in
  let table = Convolve.Table.create step in
  let oracle = iterated_naive step 512 in
  List.iter
    (fun n ->
      let p = Convolve.Table.get table n in
      check_float ~eps:1e-9
        (Printf.sprintf "mass at level %d" n)
        1.0 (Pmf.total p);
      check_bool
        (Printf.sprintf "level %d = naive oracle" n)
        true
        (tv p oracle.(n - 1) < 1e-9))
    [ 1; 7; 64; 365; 512 ]

(* --- the loop kernel and zero trimming are exact --------------------- *)

(* The naive kernel as it was written over [Pmf.iter] closures: the loop
   rewrite must keep its additions, their order and so every bit. *)
let old_raw_naive a b =
  let la = Pmf.lo a and lb = Pmf.lo b in
  let na = Pmf.hi a - la + 1 and nb = Pmf.hi b - lb + 1 in
  let probs = Array.make (na + nb - 1) 0.0 in
  Pmf.iter a (fun va pa ->
      if pa > 0.0 then
        Pmf.iter b (fun vb pb ->
            let i = va + vb - la - lb in
            probs.(i) <- probs.(i) +. (pa *. pb)));
  (la + lb, probs)

(* Pmfs with zero entries inside and at either end (keeping at least one
   nonzero weight so they are valid). *)
let gen_zeroed_pmf =
  QCheck2.Gen.(
    let weight = oneof [ return 0.0; float_range 0.01 5.0 ] in
    let* lo = int_range (-8) 8 in
    let* n = int_range 1 12 in
    let* weights = list_repeat n weight in
    let* keep = int_range 0 (n - 1) in
    let* kept = float_range 0.01 5.0 in
    let weights = Array.of_list weights in
    if Array.for_all (fun w -> w = 0.0) weights then weights.(keep) <- kept;
    return (Pmf.create ~lo weights))

let prop_naive_loop_matches_iter_formulation =
  qcheck ~count:300 "naive loop kernel = Pmf.iter formulation, bit for bit"
    QCheck2.Gen.(tup2 gen_zeroed_pmf gen_zeroed_pmf)
    (fun (a, b) ->
      let lo, raw = old_raw_naive a b in
      bit_equal (Convolve.pair_naive a b) (Pmf.create ~lo (Array.copy raw))
      && bit_equal (Convolve.pair a b) (Pmf.of_dense ~lo raw))

let prop_trimmed_left_operand_exact =
  qcheck ~count:300 "pair_naive (trim_zeros a) b = pair_naive a b, bit for bit"
    QCheck2.Gen.(tup2 gen_zeroed_pmf gen_zeroed_pmf)
    (fun (a, b) ->
      bit_equal (Convolve.pair_naive (Pmf.trim_zeros a) b)
        (Convolve.pair_naive a b)
      && bit_equal (Convolve.pair (Pmf.trim_zeros a) b) (Convolve.pair a b))

let prop_trim_keeps_entries =
  qcheck ~count:300 "trim_zeros keeps every nonzero entry, no renormalising"
    gen_zeroed_pmf
    (fun a ->
      let t = Pmf.trim_zeros a in
      let ends_nonzero =
        Pmf.lo t = Pmf.hi t
        || (Pmf.prob t (Pmf.lo t) <> 0.0 && Pmf.prob t (Pmf.hi t) <> 0.0)
      in
      let dropped_only_zeros =
        let rec go v =
          v > Pmf.hi a
          || ((Pmf.prob a v = 0.0 || (v >= Pmf.lo t && v <= Pmf.hi t))
             && go (v + 1))
        in
        go (Pmf.lo a)
      in
      ends_nonzero && dropped_only_zeros && bit_equal t a
      && same_bits (Pmf.total t) (Pmf.total a))

let test_trim_no_renormalisation () =
  (* Zeros at both ends and inside the kept span:
     trimming hands back the stored probabilities, never rescaled. *)
  let a = Pmf.create ~lo:(-2) [| 0.0; 0.0; 0.1; 0.2; 0.3; 0.0 |] in
  let t = Pmf.trim_zeros a in
  check_int "lo" 0 (Pmf.lo t);
  check_int "hi" 2 (Pmf.hi t);
  check_bool "same bits" true (bit_equal a t);
  check_bool "untrimmed pmf returned as is" true
    (Pmf.trim_zeros t == t)

(* --- the software product for the tails of deep levels ------------- *)

let of_bits n = Int64.float_of_bits (Int64.of_int n)

(* x in [0, 2^-990) by bit pattern (mostly normal exponents, 1/33
   subnormal), subnormals alone, and the boundary patterns around
   2^-1022 and 2^-1021. *)
let gen_tiny_x =
  QCheck2.Gen.(
    frequency
      [
        (4, map of_bits (int_range 0 ((33 lsl 52) - 1)));
        (3, map of_bits (int_range 0 ((1 lsl 52) - 1)));
        ( 1,
          oneofl
            (List.map of_bits
               [ 0; 1; (1 lsl 52) - 1; 1 lsl 52; (1 lsl 52) + 1;
                 (2 lsl 52) - 1; 2 lsl 52; (2 lsl 52) + 1 ]) );
      ])

(* b in (0, 2]: every binade from 2^-60 up, and the scales a kernel
   passes most (1, powers of two, 1 ± 1 ulp). *)
let gen_b =
  QCheck2.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun u e -> Float.ldexp u (-e))
            (float_range 1.0 2.0) (int_range 0 60) );
        (1, map (fun u -> 2.0 -. u) (float_range 0.0 1.99));
        ( 1,
          oneofl
            [ 1.0; 0.5; 0.25; 0.75; 2.0; Float.succ 1.0; Float.pred 1.0 ] );
      ])

let gen_tiny_product =
  QCheck2.Gen.(
    oneof
      [
        pair gen_tiny_x gen_b;
        (* x·b in [2^-1024, 2^-1021], where fl(m·b) has one or two
           fraction bits and is often a half-integer. *)
        (let* y = map of_bits (int_range (1 lsl 50) (1 lsl 53)) in
         let* b = gen_b in
         return (y /. b, b));
        (* Exact midpoints of the subnormal grid: (2j+1)·2^-1074 · 1/2. *)
        map
          (fun j -> (of_bits ((2 * j) + 1), 0.5))
          (int_range 0 ((1 lsl 51) - 1));
      ])

let prop_tiny_mul_is_hardware_product =
  qcheck ~count:20000 "tiny_mul x b = x *. b, bit for bit" gen_tiny_product
    (fun (x, b) -> same_bits (Convolve.tiny_mul x b) (x *. b))

let suite =
  [
    Alcotest.test_case "points" `Quick test_pair_point_masses;
    Alcotest.test_case "two dice" `Quick test_pair_dice;
    Alcotest.test_case "means and variances add" `Quick test_means_add;
    Alcotest.test_case "nfold equals chained pairs" `Quick
      test_nfold_equals_repeated_pair;
    Alcotest.test_case "table binomial" `Quick test_table_binomial;
    Alcotest.test_case "memo table consistency" `Quick
      test_table_bits_any_order;
    prop_commutative;
    prop_mass_preserved;
    prop_pair_matches_naive_oracle;
    prop_table_matches_iterated_oracle;
    Alcotest.test_case "deep table levels normalised" `Quick
      test_table_deep_levels_normalised;
    prop_naive_loop_matches_iter_formulation;
    prop_trimmed_left_operand_exact;
    prop_trim_keeps_entries;
    Alcotest.test_case "trim_zeros does not renormalise" `Quick
      test_trim_no_renormalisation;
    prop_tiny_mul_is_hardware_product;
  ]
