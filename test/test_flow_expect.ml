open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Helpers

let tup side value arrival = Tuple.make ~side ~value ~arrival

(* --- the Section 3.4 example ----------------------------------------- *)

let test_section_3_4 () =
  let plan, adaptive, plan_bound =
    Ssj_workload.Experiments.example_3_4_numbers ()
  in
  check_float ~eps:1e-9 "FlowExpect expected benefit" 1.6
    plan.Flow_expect.expected_benefit;
  (match plan.Flow_expect.keep with
  | [ t ] ->
    check_bool "keeps the cached R tuple" true
      (t.Tuple.side = Tuple.R && t.Tuple.value = 1)
  | other -> Alcotest.failf "expected 1 kept tuple, got %d" (List.length other));
  check_float ~eps:1e-9 "exhaustive plan bound matches" 1.6 plan_bound;
  check_float ~eps:1e-9 "optimal adaptive strategy" 1.75 adaptive;
  check_bool "suboptimality gap" true (adaptive > plan_bound +. 0.1)

(* --- agreement with the exhaustive plan optimum ----------------------- *)

(* Random small scenarios over independent per-step distributions: the
   min-cost-flow plan value must equal the exhaustive best predetermined
   plan. *)
let gen_scenario =
  QCheck2.Gen.(
    let value = int_range 1 3 in
    let arrival_dist =
      let* v1 = value and* v2 = value in
      let* p = float_range 0.2 0.8 in
      return [ (p, Some v1); (1.0 -. p, Some v2) ]
    in
    let* steps = int_range 1 4 in
    let* dists =
      list_repeat steps
        (let* rd = arrival_dist and* sd = arrival_dist in
         return (rd, sd))
    in
    let* cached_value = value in
    return (dists, cached_value))

let joint_of (rd, sd) : Expectimax.step =
  List.concat_map
    (fun (pr, r) -> List.map (fun (ps, s) -> (pr *. ps, (r, s))) sd)
    rd

let pmf_of_dist d =
  Pmf.of_assoc
    (List.map (fun (p, v) -> (Option.value ~default:(-999) v, p)) d)

let test_flow_plan_equals_exhaustive =
  qcheck ~count:120 "FlowExpect plan value = exhaustive plan optimum"
    gen_scenario
    (fun (dists, cached_value) ->
      let lookahead = List.length dists in
      (* Predictors for each stream: independent known per-step laws. *)
      let make_pred pick =
        Predictor.make ~name:"scenario" ~time:0
          ~pmf:(fun ~time:_ ~last:_ delta ->
            match List.nth_opt dists (delta - 1) with
            | Some pair -> pmf_of_dist (pick pair)
            | None -> Pmf.point (-777))
          ()
      in
      let r = make_pred fst and s = make_pred snd in
      (* Cache: one R tuple; no arrivals at t0 (they are part of "cached"
         candidates with dead arrivals to keep the comparison clean). *)
      let cached = [ tup Tuple.R cached_value (-1) ] in
      let arrivals =
        [ tup Tuple.R (-50) 0; tup Tuple.S (-60) 0 ]
      in
      let plan =
        Flow_expect.decide ~r ~s ~lookahead ~cached ~arrivals ~capacity:1 ()
      in
      (* Exhaustive: same candidates.  Initial cache contains all three
         candidates?  No — expectimax takes the pre-decision cache, so we
         model t0's decision by an extra step 0 with deterministic
         arrivals (the two dead tuples) and benefits 0. *)
      let steps : Expectimax.step list =
        [ (1.0, (Some (-50), Some (-60))) ]
        :: List.map joint_of dists
      in
      let plan_bound =
        Expectimax.best_plan_benefit
          ~cache:[ (Tuple.R, cached_value) ]
          ~capacity:1 ~steps
      in
      Float.abs (plan.Flow_expect.expected_benefit -. plan_bound) < 1e-9)

(* FlowExpect's plan value can never exceed the adaptive optimum. *)
let test_flow_below_adaptive =
  qcheck ~count:60 "FlowExpect <= adaptive optimum" gen_scenario
    (fun (dists, cached_value) ->
      let steps : Expectimax.step list =
        [ (1.0, (Some (-50), Some (-60))) ] :: List.map joint_of dists
      in
      let cache = [ (Ssj_stream.Tuple.R, cached_value) ] in
      let adaptive = Expectimax.best ~cache ~capacity:1 ~steps in
      let plan_bound = Expectimax.best_plan_benefit ~cache ~capacity:1 ~steps in
      plan_bound <= adaptive +. 1e-9)

(* --- policy-level behaviour ------------------------------------------ *)

let test_lookahead_one_is_greedy () =
  (* With lookahead 1, FlowExpect keeps the tuples with the highest
     next-step match probability. *)
  let dist = Pmf.of_assoc [ (1, 0.6); (2, 0.4) ] in
  let r = Stationary.create dist and s = Stationary.create dist in
  let cached = [ tup Tuple.R 1 (-2); tup Tuple.R 2 (-1) ] in
  let plan =
    Flow_expect.decide ~r ~s ~lookahead:1 ~cached
      ~arrivals:[ tup Tuple.R (-9) 0; tup Tuple.S (-8) 0 ]
      ~capacity:1 ()
  in
  (match plan.Flow_expect.keep with
  | [ t ] -> check_int "keeps the likelier value" 1 t.Tuple.value
  | _ -> Alcotest.fail "expected one kept tuple");
  check_float ~eps:1e-9 "benefit = next-step probability" 0.6
    plan.Flow_expect.expected_benefit

let test_handle_reuse_identical =
  (* A solver handle carried across decide calls (reset arena, cached
     law arrays) must leave decisions bit-identical to fresh solves.
     Each trial replays three scenarios through one shared handle to
     exercise re-dimensioning between calls. *)
  qcheck ~count:40 "reused handle = fresh solve (bit-identical)"
    QCheck2.Gen.(list_size (return 3) gen_scenario)
    (fun scenarios ->
      let h = Flow_expect.handle () in
      List.for_all
        (fun (dists, cached_value) ->
          let lookahead = List.length dists in
          let make_pred pick =
            Predictor.make ~name:"scenario" ~time:0
              ~pmf:(fun ~time:_ ~last:_ delta ->
                match List.nth_opt dists (delta - 1) with
                | Some pair -> pmf_of_dist (pick pair)
                | None -> Pmf.point (-777))
              ()
          in
          let r = make_pred fst and s = make_pred snd in
          let cached = [ tup Tuple.R cached_value (-1) ] in
          let arrivals = [ tup Tuple.R (-50) 0; tup Tuple.S (-60) 0 ] in
          let warm =
            Flow_expect.decide ~handle:h ~r ~s ~lookahead ~cached ~arrivals
              ~capacity:1 ()
          in
          let fresh =
            Flow_expect.decide ~r ~s ~lookahead ~cached ~arrivals ~capacity:1 ()
          in
          warm.Flow_expect.expected_benefit = fresh.Flow_expect.expected_benefit
          && warm.Flow_expect.keep = fresh.Flow_expect.keep)
        scenarios)

let test_policy_runs_and_validates () =
  let cfg = Ssj_workload.Config.tower () in
  let r, s = Ssj_workload.Config.predictors cfg in
  let trace = Trace.generate ~r ~s ~rng:(rng 61) ~length:120 in
  let policy () = Ssj_workload.Factory.trend_flow_expect cfg ~lookahead:4 () in
  let result =
    Ssj_engine.Join_sim.run ~trace ~policy:(policy ()) ~capacity:6 ()
  in
  check_bool "nonzero results" true (result.Ssj_engine.Join_sim.total_results > 0);
  (* The list-scan reference checks every selection on the way. *)
  let checked =
    Ssj_conform.Ref_sim.run ~trace ~policy:(policy ()) ~capacity:6 ()
  in
  check_int "reference count" result.Ssj_engine.Join_sim.total_results
    checked.Ssj_conform.Ref_sim.total_results

let test_flow_expect_competitive_on_tower () =
  (* Sanity: FlowExpect should beat RAND on TOWER at small scale. *)
  let cfg = Ssj_workload.Config.tower () in
  let r, s = Ssj_workload.Config.predictors cfg in
  let trace = Trace.generate ~r ~s ~rng:(rng 62) ~length:250 in
  let run policy =
    (Ssj_engine.Join_sim.run ~trace ~policy ~capacity:8 ())
      .Ssj_engine.Join_sim
      .total_results
  in
  let fe = run (Ssj_workload.Factory.trend_flow_expect cfg ~lookahead:5 ()) in
  let rnd =
    run
      (Baselines.rand ~rng:(rng 1)
         ~lifetime:(Ssj_workload.Config.lifetime cfg)
         ())
  in
  check_bool "FLOWEXPECT > RAND on TOWER" true (fe > rnd)

(* --- bit-identity pins and allocation gate --------------------------- *)

(* fig19's setting on one FLOOR trace: cache 20, look-ahead 10. *)
let floor_run () =
  let cfg = Ssj_workload.Config.floor () in
  let r, s = Ssj_workload.Config.predictors cfg in
  let trace = Trace.generate ~r ~s ~rng:(rng 42) ~length:300 in
  (trace, Ssj_workload.Factory.trend_flow_expect cfg ~lookahead:10 ())

(* FLOOR's uniform noise and the graph's zero-cost connector arcs make
   equal path costs common, so this digest of the kept uids at every step
   also pins the solver's tie order, which decides which of several
   optimal plans is returned. *)
let test_floor_kept_uids_pinned () =
  let trace, policy = floor_run () in
  let _, decisions =
    Ssj_engine.Join_sim.run_logged ~trace ~policy ~capacity:20 ()
  in
  let b = Buffer.create 65536 in
  Array.iter
    (fun kept ->
      List.iter (fun t -> Printf.bprintf b "%d," t.Tuple.uid) kept;
      Buffer.add_char b ';')
    decisions;
  Alcotest.(check string)
    "kept-uid digest" "5075338cb548b33549360ff698332695"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Allocation is exact, so this gate has no timing noise.  A step is the
   simulator's arrival pair, the predictor updates and laws, the cost
   rewrite and the re-solve; the graph rebuilds while the cache fills
   reuse one set of arrays.  Rebuilding the graph and passing tuple
   lists every step cost ~2,600 words.  The run allocates far less than
   a minor heap, and a minor collection inside the window would add the
   whole heap to [Gc.counters]' minor words, so it starts on an empty
   one. *)
let test_floor_step_allocation () =
  let trace, policy = floor_run () in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  Gc.minor ();
  let before = allocated () in
  ignore
    (Sys.opaque_identity
       (Ssj_engine.Join_sim.run ~trace ~policy ~capacity:20 ()));
  let per_step = (allocated () -. before) /. float_of_int (Trace.length trace) in
  if per_step > 256.0 then
    Alcotest.failf "FlowExpect allocated %.0f words per step (gate 256)"
      per_step

(* A random walk's laws have one probability vector per look-ahead
   offset, kept across steps, so the benefit memo keys each (R offset, S
   offset) pair of vectors separately.  A memo holding a single pair
   re-seeded on every lookup here (0 hits in 27,000).  The decisions must
   equal fresh per-step solves, which share no memo. *)
let test_walk_memo_hits () =
  let w = Ssj_workload.Config.walk () in
  let r, s = Ssj_workload.Config.walk_predictors w in
  let trace = Trace.generate ~r ~s ~rng:(rng 42) ~length:300 in
  let policy = Ssj_workload.Factory.walk_flow_expect w ~lookahead:10 () in
  let counter name =
    List.find_map
      (function
        | Ssj_obs.Obs.Counter_v { name = n; value } when n = name -> Some value
        | _ -> None)
      (Ssj_obs.Obs.snapshot ())
    |> Option.get
  in
  let saved = Ssj_obs.Obs.on () in
  Ssj_obs.Obs.set_enabled true;
  Ssj_obs.Obs.reset ();
  let _, decisions =
    Fun.protect
      ~finally:(fun () -> Ssj_obs.Obs.set_enabled saved)
      (fun () -> Ssj_engine.Join_sim.run_logged ~trace ~policy ~capacity:10 ())
  in
  let hits = counter "flow_expect.law_warm_hits"
  and misses = counter "flow_expect.law_warm_misses" in
  let ratio = float_of_int hits /. float_of_int (hits + misses) in
  if ratio <= 0.9 then
    Alcotest.failf "walk memo hit ratio %.4f (%d hits, %d misses), gate 0.9"
      ratio hits misses;
  let rp = ref r and sp = ref s and cached = ref [] in
  Array.iteri
    (fun t kept ->
      let r_t, s_t = Trace.arrivals trace t in
      rp := !rp.Predictor.observe r_t.Tuple.value;
      sp := !sp.Predictor.observe s_t.Tuple.value;
      let fresh =
        Flow_expect.decide ~r:!rp ~s:!sp ~lookahead:10 ~cached:!cached
          ~arrivals:[ r_t; s_t ] ~capacity:10 ()
      in
      let uids ts = List.map (fun (t : Tuple.t) -> t.Tuple.uid) ts in
      if uids fresh.Flow_expect.keep <> uids kept then
        Alcotest.failf "step %d: kept uids differ from a fresh solve" t;
      cached := kept)
    decisions

(* The policy scores the candidates whose source arc carries flow above
   the rest and lets the shared selection keep [min capacity n] of them,
   so the solve must carry exactly that many units at every step: one
   unit source arc and a keep chain to the sink per candidate.  Checked
   on FLOOR and TOWER at capacities 1-25 and look-aheads 1, 5 and 10,
   and on WALK at capacities 1-30 and look-ahead 5, from an empty cache
   until well past full: a fresh solve on the policy's cache keeps
   [min capacity n], and the policy keeps the same uids, in candidate
   order. *)
let test_keeps_min_capacity_n () =
  let steps = 30 in
  let check_run ~label ~r ~s ~policy ~lookahead ~capacity ~seed =
    let trace = Trace.generate ~r ~s ~rng:(rng seed) ~length:steps in
    let _, decisions =
      Ssj_engine.Join_sim.run_logged ~trace ~policy ~capacity ()
    in
    let h = Flow_expect.handle () in
    let rp = ref r and sp = ref s and cached = ref [] in
    Array.iteri
      (fun t kept ->
        let r_t, s_t = Trace.arrivals trace t in
        rp := !rp.Predictor.observe r_t.Tuple.value;
        sp := !sp.Predictor.observe s_t.Tuple.value;
        let plan =
          Flow_expect.decide ~handle:h ~r:!rp ~s:!sp ~lookahead ~cached:!cached
            ~arrivals:[ r_t; s_t ] ~capacity ()
        in
        let want = min capacity (List.length !cached + 2) in
        let uids ts = List.map (fun (t : Tuple.t) -> t.Tuple.uid) ts in
        if List.length plan.Flow_expect.keep <> want then
          Alcotest.failf "%s cap=%d l=%d step %d: the solve kept %d, not %d"
            label capacity lookahead t
            (List.length plan.Flow_expect.keep)
            want;
        if uids plan.Flow_expect.keep <> uids kept then
          Alcotest.failf "%s cap=%d l=%d step %d: the policy kept other uids"
            label capacity lookahead t;
        cached := kept)
      decisions
  in
  List.iter
    (fun (label, cfg) ->
      let r, s = Ssj_workload.Config.predictors cfg in
      List.iter
        (fun lookahead ->
          for capacity = 1 to 25 do
            check_run ~label ~r ~s ~lookahead ~capacity ~seed:(100 + capacity)
              ~policy:(Ssj_workload.Factory.trend_flow_expect cfg ~lookahead ())
          done)
        [ 1; 5; 10 ])
    [
      ("FLOOR", Ssj_workload.Config.floor ());
      ("TOWER", Ssj_workload.Config.tower ());
    ];
  let w = Ssj_workload.Config.walk () in
  let r, s = Ssj_workload.Config.walk_predictors w in
  for capacity = 1 to 30 do
    check_run ~label:"WALK" ~r ~s ~lookahead:5 ~capacity ~seed:(200 + capacity)
      ~policy:(Ssj_workload.Factory.walk_flow_expect w ~lookahead:5 ())
  done

let suite =
  [
    Alcotest.test_case "Section 3.4 example" `Quick test_section_3_4;
    test_flow_plan_equals_exhaustive;
    test_flow_below_adaptive;
    Alcotest.test_case "lookahead 1 is greedy" `Quick
      test_lookahead_one_is_greedy;
    test_handle_reuse_identical;
    Alcotest.test_case "policy runs and validates" `Quick
      test_policy_runs_and_validates;
    Alcotest.test_case "FLOOR kept uids pinned" `Quick
      test_floor_kept_uids_pinned;
    Alcotest.test_case "FLOOR step allocation gate" `Quick
      test_floor_step_allocation;
    Alcotest.test_case "beats RAND on TOWER" `Slow
      test_flow_expect_competitive_on_tower;
    Alcotest.test_case "WALK benefit memo hits, decisions fresh" `Quick
      test_walk_memo_hits;
    Alcotest.test_case "FlowExpect keeps min(capacity, n) every step" `Quick
      test_keeps_min_capacity_n;
  ]
