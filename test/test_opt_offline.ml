open Ssj_stream
open Ssj_core
open Helpers

let trace r s = Trace.of_values ~r:(Array.of_list r) ~s:(Array.of_list s)

let test_no_matches () =
  let t = trace [ 1; 2; 3 ] [ 4; 5; 6 ] in
  check_int "nothing joins" 0 (Opt_offline.max_results ~trace:t ~capacity:2 ())

let test_single_match () =
  (* S emits value 7 at t=0; R emits 7 at t=2: caching the S tuple wins
     one result.  Filler values are all distinct so nothing else joins. *)
  let t = trace [ -1; -2; 7 ] [ 7; -3; -4 ] in
  check_int "one result" 1 (Opt_offline.max_results ~trace:t ~capacity:1 ())

let test_same_time_not_counted () =
  (* Matching values arriving at the same step are excluded. *)
  let t = trace [ 5; 1 ] [ 5; 2 ] in
  check_int "same-time excluded" 0 (Opt_offline.max_results ~trace:t ~capacity:2 ())

let test_repeated_matches_accumulate () =
  (* One cached S tuple joins three future R arrivals. *)
  let t = trace [ 0; 7; 7; 7 ] [ 7; 1; 2; 3 ] in
  check_int "three results" 3 (Opt_offline.max_results ~trace:t ~capacity:1 ())

let test_capacity_conflict () =
  (* Two S tuples want the one slot; each would earn one result at the
     same later time: only one can be held. *)
  let t = trace [ -1; -2; 8; 9 ] [ 8; 9; -3; -4 ] in
  check_int "capacity 1" 1 (Opt_offline.max_results ~trace:t ~capacity:1 ());
  check_int "capacity 2" 2 (Opt_offline.max_results ~trace:t ~capacity:2 ())

let test_slot_reuse () =
  (* The slot can be reused after a tuple's last match: S(8)@0 matches at
     t=1; S(9)@1 matches at t=3 -> both fit in one slot. *)
  let t = trace [ -1; 8; -2; 9 ] [ 8; 9; -3; -4 ] in
  check_int "sequential reuse" 2 (Opt_offline.max_results ~trace:t ~capacity:1 ())

let test_eviction_vs_holding () =
  (* Holding S(8) through both its matches (t=1, t=3) blocks S(9) whose
     only match is t=2; with capacity 1 the best is hold S(8): 2 results. *)
  let t = trace [ -1; 8; 9; 8 ] [ 8; 9; -2; -3 ] in
  check_int "hold the double matcher" 2
    (Opt_offline.max_results ~trace:t ~capacity:1 ());
  check_int "capacity 2 takes all three" 3
    (Opt_offline.max_results ~trace:t ~capacity:2 ())

let test_warmup_start () =
  let t = trace [ -1; 7; 7 ] [ 7; -2; -3 ] in
  check_int "all counted" 2 (Opt_offline.max_results_from ~trace:t ~capacity:1 ~start:0 ());
  check_int "first match in warmup" 1
    (Opt_offline.max_results_from ~trace:t ~capacity:1 ~start:2 ());
  check_int "all in warmup" 0
    (Opt_offline.max_results_from ~trace:t ~capacity:1 ~start:3 ())

let test_acyclic_init_agrees () =
  (* The DAG-potential initialisation must not change results. *)
  let r = rng 41 in
  for _ = 1 to 10 do
    let n = 6 in
    let tr =
      trace
        (List.init n (fun _ -> Ssj_prob.Rng.int r 5))
        (List.init n (fun _ -> Ssj_prob.Rng.int r 5))
    in
    (* max_results takes its potentials from the topological pass;
       compare against the exhaustive optimum at capacity 2. *)
    check_int "acyclic = brute force"
      (Ssj_conform.Ref_sim.opt_exhaustive ~trace:tr ~capacity:2 ())
      (Opt_offline.max_results ~trace:tr ~capacity:2 ())
  done

let test_belady_hits () =
  let reference = [| 1; 2; 3; 1; 2; 3; 1; 2; 3 |] in
  let hits capacity =
    (Ssj_engine.Cache_sim.run ~reference ~policy:(Classic.lfd ~reference)
       ~capacity ())
      .Ssj_engine.Cache_sim.hits
  in
  (* Capacity 2, cyclic thrash: pinning {1,2} and bypassing 3 gives 4
     hits, which is optimal. *)
  check_int "belady hits" 4 (hits 2);
  check_int "full capacity" 6 (hits 3)

(* The capacity curve of one TOWER trace, pinned: every value is read off
   the breakpoints of one successive-shortest-path solve.  The trace
   saturates at capacity 5. *)
let test_tower_curve_pinned () =
  let r, s = Ssj_workload.Config.(predictors (tower ())) in
  let t = Trace.generate ~r ~s ~rng:(rng 9) ~length:500 in
  let capacities = List.init 8 succ in
  let curve = Opt_offline.max_results_curve ~trace:t ~capacities ~start:0 () in
  Alcotest.(check (list (pair int int))) "TOWER 500 curve"
    [ (1, 222); (2, 334); (3, 395); (4, 419); (5, 421); (6, 421); (7, 421);
      (8, 421) ]
    curve

let suite =
  [
    Alcotest.test_case "no matches" `Quick test_no_matches;
    Alcotest.test_case "single match" `Quick test_single_match;
    Alcotest.test_case "same-time excluded" `Quick test_same_time_not_counted;
    Alcotest.test_case "repeated matches" `Quick
      test_repeated_matches_accumulate;
    Alcotest.test_case "capacity conflicts" `Quick test_capacity_conflict;
    Alcotest.test_case "slot reuse" `Quick test_slot_reuse;
    Alcotest.test_case "eviction vs holding" `Quick test_eviction_vs_holding;
    Alcotest.test_case "warm-up accounting" `Quick test_warmup_start;
    Alcotest.test_case "acyclic potentials agree" `Quick
      test_acyclic_init_agrees;
    Alcotest.test_case "Belady hit counts" `Quick test_belady_hits;
    Alcotest.test_case "TOWER curve pinned" `Quick test_tower_curve_pinned;
  ]
