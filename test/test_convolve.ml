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

let test_nfold_equals_repeated_pair () =
  let step = Pmf.of_assoc [ (-1, 0.5); (1, 0.5) ] in
  let direct = Convolve.nfold step 4 in
  let manual =
    Convolve.pair (Convolve.pair (Convolve.pair step step) step) step
  in
  check_bool "4-fold equals chained pairs" true (Pmf.equal direct manual)

let test_nfold_binomial () =
  (* n-fold convolution of a ±1 coin: shifted binomial. *)
  let step = Pmf.of_assoc [ (0, 0.5); (1, 0.5) ] in
  let p = Convolve.nfold step 5 in
  check_float ~eps:1e-12 "binomial(5, 0.5) at 2" (10.0 /. 32.0) (Pmf.prob p 2)

let test_table_consistency () =
  let step = Dist.discretized_normal ~sigma:1.0 ~bound:4 in
  let table = Convolve.Table.create step in
  (* Query out of order to exercise the memo growth. *)
  let p5 = Convolve.Table.get table 5 in
  let p2 = Convolve.Table.get table 2 in
  check_bool "level 2" true (Pmf.equal p2 (Convolve.nfold step 2));
  check_bool "level 5" true (Pmf.equal p5 (Convolve.nfold step 5));
  check_bool "level 1 is the step" true
    (Pmf.equal (Convolve.Table.get table 1) step)

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

(* --- FFT / doubling paths vs the naive oracle ------------------------- *)

(* Total-variation distance over the union of supports. *)
let tv a b =
  let lo = min (Pmf.lo a) (Pmf.lo b) and hi = max (Pmf.hi a) (Pmf.hi b) in
  let acc = ref 0.0 in
  for v = lo to hi do
    acc := !acc +. Float.abs (Pmf.prob a v -. Pmf.prob b v)
  done;
  0.5 *. !acc

(* Supports from a point mass up to widths well past the FFT cutoff
   ({!Fftconv.should_use} flips around a few dozen cells), with heavily
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
  qcheck ~count:150 "pair (FFT or naive) = naive oracle within 1e-9 TV"
    QCheck2.Gen.(tup2 gen_any_width_pmf gen_any_width_pmf)
    (fun (a, b) -> tv (Convolve.pair a b) (Convolve.pair_naive a b) < 1e-9)

let prop_nfold_matches_iterated_oracle =
  (* Doubling (whose late squarings run wide×wide, i.e. through the FFT)
     vs a left fold of the naive kernel. *)
  qcheck ~count:30 "nfold doubling = iterated naive oracle within 1e-9 TV"
    QCheck2.Gen.(tup2 gen_small_pmf (int_range 1 40))
    (fun (step, n) ->
      let iterated = ref step in
      for _ = 2 to n do
        iterated := Convolve.pair_naive !iterated step
      done;
      tv (Convolve.nfold step n) !iterated < 1e-9)

let test_fft_crossover_exact () =
  (* Pin widths straddling the cutoff so both paths are exercised even if
     the cost model moves. *)
  let wide n = Pmf.create ~lo:(-3) (Array.init n (fun i -> 1.0 +. float i)) in
  List.iter
    (fun (na, nb) ->
      let a = wide na and b = wide nb in
      check_bool
        (Printf.sprintf "widths %dx%d" na nb)
        true
        (tv (Convolve.pair a b) (Convolve.pair_naive a b) < 1e-9))
    [ (4, 300); (32, 32); (48, 64); (100, 100); (256, 257) ]

let test_table_deep_levels_normalised () =
  (* Satellite of the doubling work: deep memo levels must stay unit-mass
     (compensated renormalisation) and agree with a from-scratch nfold. *)
  let step = Dist.discretized_normal ~sigma:1.5 ~bound:6 in
  let table = Convolve.Table.create step in
  List.iter
    (fun n ->
      let p = Convolve.Table.get table n in
      check_float ~eps:1e-9
        (Printf.sprintf "mass at level %d" n)
        1.0 (Pmf.total p);
      check_bool
        (Printf.sprintf "level %d = nfold" n)
        true
        (tv p (Convolve.nfold step n) < 1e-9))
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

let same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y

(* Bit equality of [Pr{X = v}] at every v of either support. *)
let bit_equal a b =
  let lo = min (Pmf.lo a) (Pmf.lo b) and hi = max (Pmf.hi a) (Pmf.hi b) in
  let rec go v = v > hi || (same_bits (Pmf.prob a v) (Pmf.prob b v) && go (v + 1)) in
  go lo

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
      (* Widths <= 12 keep [pair] on its naive kernel. *)
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

let suite =
  [
    Alcotest.test_case "points" `Quick test_pair_point_masses;
    Alcotest.test_case "two dice" `Quick test_pair_dice;
    Alcotest.test_case "means and variances add" `Quick test_means_add;
    Alcotest.test_case "nfold equals chained pairs" `Quick
      test_nfold_equals_repeated_pair;
    Alcotest.test_case "nfold binomial" `Quick test_nfold_binomial;
    Alcotest.test_case "memo table consistency" `Quick test_table_consistency;
    prop_commutative;
    prop_mass_preserved;
    prop_pair_matches_naive_oracle;
    prop_nfold_matches_iterated_oracle;
    Alcotest.test_case "fft crossover widths" `Quick test_fft_crossover_exact;
    Alcotest.test_case "deep table levels normalised" `Quick
      test_table_deep_levels_normalised;
    prop_naive_loop_matches_iter_formulation;
    prop_trimmed_left_operand_exact;
    prop_trim_keeps_entries;
    Alcotest.test_case "trim_zeros does not renormalise" `Quick
      test_trim_no_renormalisation;
  ]
