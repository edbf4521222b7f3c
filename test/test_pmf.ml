open Ssj_prob
open Helpers

let test_create_normalises () =
  let p = Pmf.create ~lo:0 [| 1.0; 3.0 |] in
  check_float "p(0)" 0.25 (Pmf.prob p 0);
  check_float "p(1)" 0.75 (Pmf.prob p 1);
  check_float "total" 1.0 (Pmf.total p)

let test_create_rejects_bad_weights () =
  Alcotest.check_raises "empty" (Invalid_argument "Pmf.create: empty support")
    (fun () -> ignore (Pmf.create ~lo:0 [||]));
  Alcotest.check_raises "zero mass"
    (Invalid_argument "Pmf.create: zero total mass") (fun () ->
      ignore (Pmf.create ~lo:0 [| 0.0; 0.0 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Pmf.create: weights must be finite and non-negative")
    (fun () -> ignore (Pmf.create ~lo:0 [| 1.0; -0.5 |]));
  List.iter
    (fun w ->
      Alcotest.check_raises "non-finite"
        (Invalid_argument "Pmf.create: weights must be finite and non-negative")
        (fun () -> ignore (Pmf.of_dense ~lo:0 [| 1.0; w |])))
    [ Float.nan; Float.infinity ]

let test_of_assoc_accumulates () =
  let p = Pmf.of_assoc [ (3, 1.0); (5, 1.0); (3, 2.0) ] in
  check_float "p(3)" 0.75 (Pmf.prob p 3);
  check_float "p(5)" 0.25 (Pmf.prob p 5);
  check_float "p(4)" 0.0 (Pmf.prob p 4);
  check_int "lo" 3 (Pmf.lo p);
  check_int "hi" 5 (Pmf.hi p)

let test_point () =
  let p = Pmf.point 7 in
  check_float "p(7)" 1.0 (Pmf.prob p 7);
  check_float "p(6)" 0.0 (Pmf.prob p 6);
  check_float "mean" 7.0 (Pmf.mean p);
  check_float "variance" 0.0 (Pmf.variance p)

let test_mean_variance () =
  let p = Pmf.of_assoc [ (0, 0.5); (2, 0.5) ] in
  check_float "mean" 1.0 (Pmf.mean p);
  check_float "variance" 1.0 (Pmf.variance p);
  check_float "stddev" 1.0 (Pmf.stddev p)

let test_dot () =
  let a = Pmf.of_assoc [ (1, 0.5); (2, 0.5) ] in
  let b = Pmf.of_assoc [ (2, 0.25); (3, 0.75) ] in
  check_float "dot" 0.125 (Pmf.dot a b);
  check_float "dot sym" (Pmf.dot a b) (Pmf.dot b a);
  check_float "disjoint" 0.0 (Pmf.dot (Pmf.point 0) (Pmf.point 5))

let test_sample_distribution () =
  let p = Pmf.of_assoc [ (1, 0.3); (5, 0.7) ] in
  let r = rng 7 in
  let freq =
    monte_carlo ~trials:20_000 (fun () -> Pmf.sample p r = 5)
  in
  check_float ~eps:0.02 "sampling frequency" 0.7 freq

let gen_pmf =
  QCheck2.Gen.(
    let* lo = int_range (-20) 20 in
    let* n = int_range 1 12 in
    let* weights = list_repeat n (float_range 0.01 10.0) in
    return (Pmf.create ~lo (Array.of_list weights)))

let prop_total_one =
  qcheck "total mass is 1" gen_pmf (fun p ->
      Float.abs (Pmf.total p -. 1.0) < 1e-9)

let prop_mean_in_support =
  qcheck "mean within support bounds" gen_pmf (fun p ->
      Pmf.mean p >= float_of_int (Pmf.lo p) -. 1e-9
      && Pmf.mean p <= float_of_int (Pmf.hi p) +. 1e-9)

let prop_shift_consistent =
  qcheck "shift moves support and mean" gen_pmf (fun p ->
      let s = Pmf.shift p 5 in
      Pmf.lo s = Pmf.lo p + 5
      && Float.abs (Pmf.mean s -. Pmf.mean p -. 5.0) < 1e-9)

let suite =
  [
    Alcotest.test_case "create normalises" `Quick test_create_normalises;
    Alcotest.test_case "create rejects bad weights" `Quick
      test_create_rejects_bad_weights;
    Alcotest.test_case "of_assoc accumulates" `Quick test_of_assoc_accumulates;
    Alcotest.test_case "point mass" `Quick test_point;
    Alcotest.test_case "mean/variance" `Quick test_mean_variance;
    Alcotest.test_case "dot" `Quick test_dot;
    Alcotest.test_case "sampling matches pmf" `Slow test_sample_distribution;
    prop_total_one;
    prop_mean_in_support;
    prop_shift_consistent;
  ]
