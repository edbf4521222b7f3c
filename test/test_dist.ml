open Ssj_prob
open Helpers

let test_uniform () =
  let p = Dist.uniform ~lo:(-10) ~hi:10 in
  check_float "each value" (1.0 /. 21.0) (Pmf.prob p 0);
  check_float "mean" 0.0 (Pmf.mean p);
  (* Variance of discrete uniform on [-w, w]: w(w+1)/3. *)
  check_float ~eps:1e-9 "variance" (10.0 *. 11.0 /. 3.0) (Pmf.variance p)

let test_discretized_normal_moments () =
  let p = Dist.discretized_normal ~sigma:2.0 ~bound:15 in
  check_float ~eps:1e-6 "zero mean" 0.0 (Pmf.mean p);
  (* Unit-bin discretisation adds 1/12 to the variance (Sheppard); the
     ±15 truncation at 7.5 sigma removes a negligible tail. *)
  check_float ~eps:0.01 "variance" (4.0 +. (1.0 /. 12.0)) (Pmf.variance p);
  check_bool "symmetric" true
    (Float.abs (Pmf.prob p 3 -. Pmf.prob p (-3)) < 1e-12)

let test_discretized_normal_unimodal () =
  let p = Dist.discretized_normal ~sigma:1.0 ~bound:5 in
  let ok = ref true in
  for v = 0 to 4 do
    if Pmf.prob p v < Pmf.prob p (v + 1) then ok := false
  done;
  check_bool "non-increasing right of the mode" true !ok

let test_truncation_renormalises () =
  (* Heavy truncation: sigma 10 bounded at 5 — still a valid pmf. *)
  let p = Dist.discretized_normal ~sigma:10.0 ~bound:5 in
  check_float "total" 1.0 (Pmf.total p);
  check_int "lo" (-5) (Pmf.lo p);
  check_int "hi" 5 (Pmf.hi p)

let test_erf_known_values () =
  check_float ~eps:1e-6 "erf 0" 0.0 (Special.erf 0.0);
  check_float ~eps:1e-6 "erf 1" 0.8427008 (Special.erf 1.0);
  check_float ~eps:1e-6 "erf -1" (-0.8427008) (Special.erf (-1.0));
  check_float ~eps:1e-6 "erf 2" 0.9953223 (Special.erf 2.0)

let test_normal_cdf () =
  check_float ~eps:1e-7 "median" 0.5 (Special.normal_cdf ~mu:3.0 ~sigma:2.0 3.0);
  check_float ~eps:1e-4 "one sigma" 0.8413447
    (Special.normal_cdf ~mu:0.0 ~sigma:1.0 1.0)

let test_normal_pdf () =
  check_float ~eps:1e-9 "mode" (1.0 /. sqrt (2.0 *. Float.pi))
    (Special.normal_pdf ~mu:0.0 ~sigma:1.0 0.0)

let suite =
  [
    Alcotest.test_case "uniform" `Quick test_uniform;
    Alcotest.test_case "discretized normal moments" `Quick
      test_discretized_normal_moments;
    Alcotest.test_case "discretized normal unimodal" `Quick
      test_discretized_normal_unimodal;
    Alcotest.test_case "heavy truncation renormalises" `Quick
      test_truncation_renormalises;
    Alcotest.test_case "erf known values" `Quick test_erf_known_values;
    Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
    Alcotest.test_case "normal pdf" `Quick test_normal_pdf;
  ]
