open Ssj_prob
open Ssj_model
open Ssj_core
open Ssj_multi
open Helpers

let test_query_validation () =
  check_bool "valid" true
    (Multi.validate_queries ~streams:3 [ (0, 1); (1, 2) ] = Ok ());
  check_bool "self join rejected" true
    (Multi.validate_queries ~streams:3 [ (1, 1) ] <> Ok ());
  check_bool "range checked" true
    (Multi.validate_queries ~streams:2 [ (0, 2) ] <> Ok ());
  check_bool "duplicates rejected" true
    (Multi.validate_queries ~streams:3 [ (0, 1); (1, 0) ] <> Ok ())

let test_partners () =
  let q = [ (0, 1); (1, 2); (0, 3) ] in
  Alcotest.(check (list int)) "stream 0" [ 1; 3 ] (Multi.partners q 0);
  Alcotest.(check (list int)) "stream 1" [ 0; 2 ] (Multi.partners q 1);
  Alcotest.(check (list int)) "stream 2" [ 1 ] (Multi.partners q 2);
  Alcotest.(check (list int)) "stream 3" [ 0 ] (Multi.partners q 3)

(* A scripted policy for counting checks. *)
let scripted decide = { Multi.name = "scripted"; select = decide }

let test_counting_respects_queries () =
  (* Streams: 0 emits 5 then 9; 1 emits 9 then 5; 2 emits 5 then 5.
     Queries {(0,1)}: cached stream-2 tuples never join. *)
  let traces = [| [| 5; 9 |]; [| 9; 5 |]; [| 5; 5 |] |] in
  let keep_all_first =
    scripted (fun ~now ~cached ~arrivals ~capacity:_ ->
        if now = 0 then arrivals else cached)
  in
  let run queries =
    (Multi.run ~traces ~queries ~policy:keep_all_first ~capacity:3
       ~validate:true ())
      .Multi
      .total_results
  in
  (* At t=1: arrivals are 0:9, 1:5, 2:5; cache = {0:5, 1:9, 2:5}.
     Query (0,1): arrival 0:9 matches cached 1:9 (1); arrival 1:5 matches
     cached 0:5 (1). *)
  check_int "single query" 2 (run [ (0, 1) ]);
  (* Adding (1,2): arrival 1:5 also matches cached 2:5; arrival 2:5
     matches cached 1:9? no. So +1. *)
  check_int "two queries" 3 (run [ (0, 1); (1, 2) ]);
  (* Full triangle: also (0,2): arrival 0:9 vs cached 2:5 no; arrival 2:5
     vs cached 0:5 yes -> +1. *)
  check_int "triangle" 4 (run [ (0, 1); (1, 2); (0, 2) ])

let test_two_stream_degeneration () =
  (* With two streams and the single query (0,1), Multi.run must agree
     with the two-stream Join_sim under equivalent policies. *)
  let cfg = Ssj_workload.Config.tower () in
  let r, s = Ssj_workload.Config.predictors cfg in
  let trace =
    Ssj_stream.Trace.generate ~r ~s ~rng:(rng 14) ~length:500
  in
  let traces = [| trace.Ssj_stream.Trace.r_values; trace.Ssj_stream.Trace.s_values |] in
  let l = Lfun.exp_ ~alpha:(Ssj_workload.Config.alpha cfg) in
  let multi_heeb =
    let r, s = Ssj_workload.Config.predictors cfg in
    Multi.heeb ~predictors:[| r; s |] ~l ~queries:[ (0, 1) ] ()
  in
  let pair_heeb =
    let r, s = Ssj_workload.Config.predictors cfg in
    Heeb.joining ~r ~s ~l ~mode:`Direct ()
  in
  let multi_count =
    (Multi.run ~traces ~queries:[ (0, 1) ] ~policy:multi_heeb ~capacity:8
       ~validate:true ())
      .Multi
      .total_results
  in
  let pair_count =
    (Ssj_engine.Join_sim.run ~trace ~policy:pair_heeb ~capacity:8 ())
      .Ssj_engine.Join_sim
      .total_results
  in
  check_int "multi = pairwise engine" pair_count multi_count

let trend_predictor offset =
  Linear_trend.linear ~time:(-1) ~speed:1 ~offset
    ~noise:(Dist.discretized_normal ~sigma:2.0 ~bound:10)
    ()

let three_stream_traces ~seed ~length =
  let rngs = Array.init 3 (fun i -> rng (seed + i)) in
  Array.init 3 (fun i ->
      fst (Predictor.generate (trend_predictor (-i)) rngs.(i) length))

let test_heeb_beats_rand_three_streams () =
  let traces = three_stream_traces ~seed:77 ~length:1200 in
  let queries = [ (0, 1); (1, 2) ] in
  let run policy =
    (Multi.run ~traces ~queries ~policy ~capacity:9 ~warmup:40 ())
      .Multi
      .counted_results
  in
  let heeb =
    Multi.heeb
      ~predictors:(Array.init 3 (fun i -> trend_predictor (-i)))
      ~l:(Lfun.exp_ ~alpha:4.0) ~queries ()
  in
  let h = run heeb in
  let r = run (Multi.rand ~rng:(rng 3)) in
  let p = run (Multi.prob ()) in
  check_bool "HEEB-multi > RAND" true (h > r);
  check_bool "HEEB-multi > PROB" true (h > p)

let test_hub_stream_gets_more_cache () =
  (* Stream 1 is the hub of a star query set: its tuples join two other
     streams and should dominate the cache under HEEB. *)
  let traces = three_stream_traces ~seed:91 ~length:800 in
  let queries = [ (0, 1); (1, 2) ] in
  let heeb =
    Multi.heeb
      ~predictors:(Array.init 3 (fun i -> trend_predictor (-i)))
      ~l:(Lfun.exp_ ~alpha:4.0) ~queries ()
  in
  (* Count hub-tuples in the cache at the end of a run via a wrapper. *)
  let hub_in_cache = ref 0 and samples = ref 0 in
  let wrapped =
    {
      Multi.name = "wrapped";
      select =
        (fun ~now ~cached ~arrivals ~capacity ->
          let sel = heeb.Multi.select ~now ~cached ~arrivals ~capacity in
          if now > 100 then begin
            incr samples;
            hub_in_cache :=
              !hub_in_cache
              + List.length
                  (List.filter (fun (t : Multi.tuple) -> t.Multi.stream = 1) sel)
          end;
          sel)
    }
  in
  ignore (Multi.run ~traces ~queries ~policy:wrapped ~capacity:9 ());
  let share =
    float_of_int !hub_in_cache /. float_of_int (!samples * 9)
  in
  check_bool "hub stream over-represented" true (share > 0.34)

(* --- properties for m >= 3 and degenerate reductions ------------------ *)

(* Deterministic, query-independent selection: newest first among the
   named streams.  Arrival and cache order are both newest-first, so the
   multi and pairwise engines agree on the kept set. *)
let keep_newest_multi streams_kept =
  scripted (fun ~now:_ ~cached ~arrivals ~capacity ->
      let candidates =
        List.filter
          (fun (t : Multi.tuple) -> List.mem t.Multi.stream streams_kept)
          (arrivals @ cached)
      in
      List.filteri (fun i _ -> i < capacity) candidates)

let keep_newest_pair =
  Ssj_conform.Ref_sim.plan ~name:"NEWEST"
    (fun ~now:_ ~cached ~arrivals ~capacity ->
      List.filteri (fun i _ -> i < capacity) (arrivals @ cached))

let run_pairwise ~r ~s ~capacity ~warmup =
  (Ssj_engine.Join_sim.run
     ~trace:(Ssj_stream.Trace.of_values ~r ~s)
     ~policy:keep_newest_pair ~capacity ~warmup ())
    .Ssj_engine.Join_sim
    .total_results

let test_three_stream_degenerate_pairwise () =
  (* Query set {(0,1)} over m = 3 with a policy that never caches the
     third stream reduces exactly to the two-stream engine. *)
  let g = rng 23 in
  let len = 400 and capacity = 4 and warmup = 50 in
  let traces =
    Array.init 3 (fun _ -> Array.init len (fun _ -> Rng.int g 9))
  in
  let multi =
    Multi.run ~traces ~queries:[ (0, 1) ]
      ~policy:(keep_newest_multi [ 0; 1 ])
      ~capacity ~warmup ~validate:true ()
  in
  let pair_total = run_pairwise ~r:traces.(0) ~s:traces.(1) ~capacity ~warmup in
  check_int "m=3 with one query = two-stream engine" pair_total
    multi.Multi.total_results

let test_four_stream_disjoint_pairs () =
  (* Queries {(0,1), (2,3)} with capacity partitioned per pair decompose
     into two independent two-stream engines. *)
  let g = rng 37 in
  let len = 300 and per_pair = 3 in
  let traces =
    Array.init 4 (fun _ -> Array.init len (fun _ -> Rng.int g 7))
  in
  let partitioned =
    scripted (fun ~now:_ ~cached ~arrivals ~capacity:_ ->
        let side streams =
          List.filteri
            (fun i _ -> i < per_pair)
            (List.filter
               (fun (t : Multi.tuple) -> List.mem t.Multi.stream streams)
               (arrivals @ cached))
        in
        side [ 0; 1 ] @ side [ 2; 3 ])
  in
  let multi =
    Multi.run ~traces
      ~queries:[ (0, 1); (2, 3) ]
      ~policy:partitioned ~capacity:(2 * per_pair) ~validate:true ()
  in
  let pair01 = run_pairwise ~r:traces.(0) ~s:traces.(1) ~capacity:per_pair ~warmup:0
  and pair23 = run_pairwise ~r:traces.(2) ~s:traces.(3) ~capacity:per_pair ~warmup:0 in
  check_int "disjoint pairs sum" (pair01 + pair23) multi.Multi.total_results

let test_qcheck_query_additivity =
  (* Under any query-independent policy the cache evolution is fixed, so
     counting is additive over the query set — and hence monotone. *)
  Helpers.qcheck ~count:80 "m=4 counting is additive over queries"
    QCheck2.Gen.(
      pair
        (list_size (int_range 4 25) (int_range 0 6))
        (int_range 1 6))
    (fun (vals, capacity) ->
      let len = List.length vals in
      let base = Array.of_list vals in
      let traces =
        Array.init 4 (fun k ->
            Array.init len (fun t -> (base.(t) + (k * (t mod 3))) mod 7))
      in
      let run queries =
        (Multi.run ~traces ~queries
           ~policy:(keep_newest_multi [ 0; 1; 2; 3 ])
           ~capacity ~validate:true ())
          .Multi
          .total_results
      in
      let qs = [ (0, 1); (2, 3); (1, 2) ] in
      let whole = run qs in
      let parts = List.fold_left (fun acc q -> acc + run [ q ]) 0 qs in
      whole = parts
      && run [ (0, 1) ] <= run [ (0, 1); (2, 3) ]
      && run [ (0, 1); (2, 3) ] <= whole)

let suite =
  [
    Alcotest.test_case "query validation" `Quick test_query_validation;
    Alcotest.test_case "partners" `Quick test_partners;
    Alcotest.test_case "counting respects queries" `Quick
      test_counting_respects_queries;
    Alcotest.test_case "degenerates to two streams" `Quick
      test_two_stream_degeneration;
    Alcotest.test_case "m=3 single query = pairwise engine" `Quick
      test_three_stream_degenerate_pairwise;
    Alcotest.test_case "m=4 disjoint pairs decompose" `Quick
      test_four_stream_disjoint_pairs;
    test_qcheck_query_additivity;
    Alcotest.test_case "HEEB-multi beats baselines" `Slow
      test_heeb_beats_rand_three_streams;
    Alcotest.test_case "hub stream gets more cache" `Slow
      test_hub_stream_gets_more_cache;
  ]
