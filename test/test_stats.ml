open Ssj_prob
open Helpers

let test_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean xs);
  check_float ~eps:1e-9 "sample variance" (32.0 /. 7.0) (Stats.variance xs);
  check_float "empty mean" 0.0 (Stats.mean [||]);
  check_float "singleton variance" 0.0 (Stats.variance [| 3.0 |])

let test_percentile () =
  let xs = [| 5.0; 1.0; 3.0 |] in
  check_float "median" 3.0 (Stats.percentile xs 0.5);
  check_float "min" 1.0 (Stats.percentile xs 0.0);
  check_float "max" 5.0 (Stats.percentile xs 1.0);
  check_float "interpolated" 2.0 (Stats.percentile xs 0.25);
  (* percentile must not mutate its input *)
  Alcotest.(check (array (float 0.0))) "input untouched" [| 5.0; 1.0; 3.0 |] xs

let test_autocorrelation () =
  let n = 400 in
  let xs = Array.init n (fun i -> if i mod 2 = 0 then 1.0 else -1.0) in
  check_float ~eps:0.02 "alternating lag-1" (-1.0) (Stats.autocorrelation xs 1);
  check_float "lag 0" 1.0 (Stats.autocorrelation xs 0)

let test_linear_regression () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = [| 1.0; 3.0; 5.0; 7.0 |] in
  let slope, intercept = Stats.linear_regression xs ys in
  check_float ~eps:1e-9 "slope" 2.0 slope;
  check_float ~eps:1e-9 "intercept" 1.0 intercept

let test_linear_regression_rejects_constant () =
  Alcotest.check_raises "constant predictor"
    (Invalid_argument "Stats.linear_regression: constant predictor") (fun () ->
      ignore (Stats.linear_regression [| 1.0; 1.0 |] [| 1.0; 2.0 |]))

let test_online_matches_batch () =
  let r = rng 3 in
  let xs = Array.init 500 (fun _ -> Rng.gaussian r ~mu:2.0 ~sigma:3.0) in
  let acc = Stats.Online.create () in
  Array.iter (Stats.Online.add acc) xs;
  check_int "count" 500 (Stats.Online.count acc);
  check_float ~eps:1e-9 "online mean" (Stats.mean xs) (Stats.Online.mean acc);
  check_float ~eps:1e-6 "online variance" (Stats.variance xs)
    (Stats.Online.variance acc)

let test_rng_determinism () =
  let a = rng 11 and b = rng 11 in
  let xa = Array.init 20 (fun _ -> Rng.int a 1000) in
  let xb = Array.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (array int)) "same seed, same draws" xa xb

let test_unit_float_into_matches_float () =
  (* RAND scores through [unit_float_into]; it must return the stdlib
     draw ([Rng.float] is [Random.State.float]) bit for bit and leave the
     state exactly where that draw leaves it. *)
  let dst = Array.make 1 0.0 in
  for seed = 0 to 63 do
    let a = rng seed and b = rng seed in
    for k = 1 to 10_000 do
      Rng.unit_float_into a dst 0;
      let expected = Rng.float b 1.0 in
      if Int64.bits_of_float dst.(0) <> Int64.bits_of_float expected then
        Alcotest.failf "seed %d draw %d: %h vs %h" seed k dst.(0) expected
    done;
    for _ = 1 to 4 do
      check_int
        (Printf.sprintf "seed %d: same state afterwards" seed)
        (Rng.int b ((1 lsl 30) - 1))
        (Rng.int a ((1 lsl 30) - 1))
    done
  done

let test_rng_split_independence () =
  let a = rng 11 in
  let child = Rng.split a in
  let xa = Array.init 20 (fun _ -> Rng.int a 1000) in
  let xc = Array.init 20 (fun _ -> Rng.int child 1000) in
  check_bool "split stream differs" true (xa <> xc)

let test_gaussian_moments () =
  let r = rng 5 in
  let xs = Array.init 40_000 (fun _ -> Rng.gaussian r ~mu:1.5 ~sigma:2.0) in
  check_float ~eps:0.05 "gaussian mean" 1.5 (Stats.mean xs);
  check_float ~eps:0.1 "gaussian stddev" 2.0 (Stats.stddev xs)

let test_bernoulli () =
  let r = rng 9 in
  let freq = monte_carlo ~trials:20_000 (fun () -> Rng.bernoulli r 0.3) in
  check_float ~eps:0.02 "bernoulli rate" 0.3 freq

let test_shuffle_preserves_elements () =
  let r = rng 2 in
  let a = Array.init 30 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle r b;
  Array.sort compare b;
  Alcotest.(check (array int)) "permutation" a b

let suite =
  [
    Alcotest.test_case "mean/variance" `Quick test_mean_variance;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "autocorrelation" `Quick test_autocorrelation;
    Alcotest.test_case "linear regression" `Quick test_linear_regression;
    Alcotest.test_case "regression rejects constants" `Quick
      test_linear_regression_rejects_constant;
    Alcotest.test_case "online accumulator" `Quick test_online_matches_batch;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "unit_float_into = Random.State.float" `Quick
      test_unit_float_into_matches_float;
    Alcotest.test_case "rng split independence" `Quick
      test_rng_split_independence;
    Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
    Alcotest.test_case "bernoulli" `Slow test_bernoulli;
    Alcotest.test_case "shuffle preserves elements" `Quick
      test_shuffle_preserves_elements;
  ]
