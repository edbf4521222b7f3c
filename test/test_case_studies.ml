open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Helpers

(* Each closed form of Section 5 must agree with the generic numeric ECB
   machinery — the paper's own consistency argument. *)

let check_ecb msg expected actual =
  Array.iteri
    (fun i v ->
      check_float ~eps:1e-9 (Printf.sprintf "%s B(%d)" msg (i + 1)) v actual.(i))
    expected

let test_stationary_joining_matches_numeric () =
  let dist = Pmf.of_assoc [ (1, 0.35); (2, 0.65) ] in
  let numeric =
    Ecb.joining ~partner:(Stationary.create dist) ~value:1 ~horizon:12
  in
  check_ecb "stationary joining"
    (Case_studies.stationary_joining_ecb ~p:0.35 ~horizon:12)
    numeric

let test_stationary_caching_matches_numeric () =
  let dist = Pmf.of_assoc [ (1, 0.35); (2, 0.65) ] in
  let numeric =
    Ecb.caching_independent ~reference:(Stationary.create dist) ~value:1
      ~horizon:12
  in
  check_ecb "stationary caching"
    (Case_studies.stationary_caching_ecb ~p:0.35 ~horizon:12)
    numeric

(* Section 5.3 joining: both streams on f(t)=t, uniform noise. *)
let wr = 3
let ws = 6

let partner_for side now =
  (* ECB of a tuple joins the *partner* stream's arrivals. *)
  let noise bound = Dist.uniform ~lo:(-bound) ~hi:bound in
  match side with
  | Tuple.R -> Linear_trend.linear ~time:now ~speed:1 ~offset:0 ~noise:(noise ws) ()
  | Tuple.S -> Linear_trend.linear ~time:now ~speed:1 ~offset:0 ~noise:(noise wr) ()

let test_floor_categories () =
  let now = 100 in
  let cat side v = Case_studies.categorize ~wr ~ws ~now ~side ~value:v in
  check_bool "R1" true (cat Tuple.R (now - ws) = Case_studies.R1);
  check_bool "R2 low edge" true (cat Tuple.R (now - ws + 1) = Case_studies.R2);
  check_bool "R2 high" true (cat Tuple.R (now + wr) = Case_studies.R2);
  check_bool "S1" true (cat Tuple.S (now - wr) = Case_studies.S1);
  check_bool "S2" true (cat Tuple.S (now + wr + 1) = Case_studies.S2);
  check_bool "S3" true (cat Tuple.S (now + wr + 2) = Case_studies.S3)

let test_floor_joining_formulas_match_numeric () =
  let now = 50 in
  let horizon = 25 in
  (* Sweep values across all categories for both sides. *)
  List.iter
    (fun side ->
      let lo = now - ws - 1 and hi = now + ws in
      for value = lo to hi do
        (* skip values a real run could not hold? the formulas are total,
           so compare everywhere the numeric model is defined *)
        let closed =
          Case_studies.floor_joining_ecb ~wr ~ws ~now ~side ~value ~horizon
        in
        let numeric =
          Ecb.joining ~partner:(partner_for side now) ~value ~horizon
        in
        check_ecb
          (Printf.sprintf "%s v=%d" (Tuple.side_to_string side) value)
          closed numeric
      done)
    [ Tuple.R; Tuple.S ]

let test_floor_caching_formula_matches_numeric () =
  let now = 30 and horizon = 20 in
  let reference =
    Linear_trend.linear ~time:now ~speed:1 ~offset:0
      ~noise:(Dist.uniform ~lo:(-wr) ~hi:wr)
      ()
  in
  for value = now - wr - 2 to now + wr do
    let closed = Case_studies.floor_caching_ecb ~w:wr ~now ~value ~horizon in
    let numeric = Ecb.caching_independent ~reference ~value ~horizon in
    check_ecb (Printf.sprintf "caching v=%d" value) closed numeric
  done

let test_floor_caching_discard_rule_is_dominance_optimal () =
  (* The "discard the smallest value" rule must coincide with a dominated
     singleton under the numeric ECBs. *)
  let now = 30 and horizon = 40 in
  let reference =
    Linear_trend.linear ~time:now ~speed:1 ~offset:0
      ~noise:(Dist.uniform ~lo:(-wr) ~hi:wr)
      ()
  in
  let values = [ now - 2; now; now + 1; now + 3 ] in
  let candidates =
    Array.of_list
      (List.map
         (fun v -> (v, Ecb.caching_independent ~reference ~value:v ~horizon))
         values)
  in
  (match Dominance.dominated_subset candidates ~count:1 with
  | Some [ v ] ->
    check_int "dominated singleton = smallest value"
      (Case_studies.floor_caching_optimal_discard ~values)
      v
  | Some _ | None -> Alcotest.fail "expected a dominated singleton")

let test_normal_trend_dominance_matches_numeric () =
  (* Appendix P: for R tuples left of f_S, farther means dominated. *)
  let now = 40 in
  let noise = Dist.discretized_normal ~sigma:2.0 ~bound:9 in
  let partner = Linear_trend.linear ~time:now ~speed:1 ~offset:0 ~noise () in
  let horizon = 30 in
  let pairs = [ (now - 1, now - 4); (now, now - 2); (now - 3, now - 8) ] in
  List.iter
    (fun (vx, vy) ->
      check_bool "analytic claim" true
        (Case_studies.normal_trend_dominates ~s_mean:(float_of_int now) ~vx ~vy);
      let bx = Ecb.joining ~partner ~value:vx ~horizon in
      let by = Ecb.joining ~partner ~value:vy ~horizon in
      check_bool
        (Printf.sprintf "numeric dominance %d over %d" vx vy)
        true
        (Dominance.dominates bx by))
    pairs

let test_walk_rank_matches_numeric_h () =
  (* Zero-drift walk: the distance ranking equals the HEEB ordering. *)
  let step = Pmf.of_assoc [ (-1, 0.25); (0, 0.5); (1, 0.25) ] in
  let x0 = 10 in
  let l = Lfun.exp_ ~alpha:8.0 in
  let curve =
    Precompute.walk_caching_curve ~step ~drift:0 ~l ~lo:(-15) ~hi:15 ()
  in
  let h v = Interp.Curve.eval curve (v - x0) in
  let values = [ 3; 18; 10; 12; 7 ] in
  let by_rank = Case_studies.walk_zero_drift_rank ~x0 ~values in
  let rec ordered = function
    | a :: (b :: _ as rest) -> h a >= h b -. 1e-12 && ordered rest
    | [ _ ] | [] -> true
  in
  check_bool "rank order = H order" true (ordered by_rank)

let suite =
  [
    Alcotest.test_case "5.2 joining" `Quick test_stationary_joining_matches_numeric;
    Alcotest.test_case "5.2 caching" `Quick test_stationary_caching_matches_numeric;
    Alcotest.test_case "5.3 categories" `Quick test_floor_categories;
    Alcotest.test_case "5.3 joining formulas (Appendix O)" `Quick
      test_floor_joining_formulas_match_numeric;
    Alcotest.test_case "5.3 caching formula" `Quick
      test_floor_caching_formula_matches_numeric;
    Alcotest.test_case "5.3 discard rule optimal" `Quick
      test_floor_caching_discard_rule_is_dominance_optimal;
    Alcotest.test_case "5.4 dominance (Appendix P)" `Quick
      test_normal_trend_dominance_matches_numeric;
    Alcotest.test_case "5.5 distance ranking" `Quick
      test_walk_rank_matches_numeric_h;
  ]
