open Ssj_stream
open Ssj_core
open Ssj_engine
open Helpers

let trace r s = Trace.of_values ~r:(Array.of_list r) ~s:(Array.of_list s)

(* A scripted policy for deterministic simulator tests. *)
let scripted decisions =
  {
    Policy.name = "scripted";
    fast = None;
    select =
      (fun ~now ~cached:_ ~arrivals:_ ~capacity:_ ->
        match List.nth_opt decisions now with Some d -> d | None -> []);
  }

let test_join_counts_basic () =
  (* Keep the S(7) tuple from t=0; R emits 7 at t=1 and t=2. *)
  let t = trace [ 0; 7; 7 ] [ 7; 1; 2 ] in
  let s7 = Tuple.make ~side:Tuple.S ~value:7 ~arrival:0 in
  let policy = scripted [ [ s7 ]; [ s7 ]; [ s7 ] ] in
  let result = Join_sim.run ~trace:t ~policy ~capacity:1 ~validate:true () in
  check_int "two results" 2 result.Join_sim.total_results

let test_same_time_match_not_counted () =
  let t = trace [ 5 ] [ 5 ] in
  let policy = scripted [ [] ] in
  let result = Join_sim.run ~trace:t ~policy ~capacity:1 () in
  check_int "same-time excluded" 0 result.Join_sim.total_results

let test_duplicate_values_both_count () =
  (* Two cached S tuples with the same value both join one R arrival. *)
  let t = trace [ 0; 0; 9 ] [ 9; 9; 0 ] in
  let s0 = Tuple.make ~side:Tuple.S ~value:9 ~arrival:0 in
  let s1 = Tuple.make ~side:Tuple.S ~value:9 ~arrival:1 in
  let policy = scripted [ [ s0 ]; [ s0; s1 ]; [] ] in
  let result = Join_sim.run ~trace:t ~policy ~capacity:2 ~validate:true () in
  check_int "two distinct results" 2 result.Join_sim.total_results

let test_warmup_discounts () =
  let t = trace [ 0; 7; 7 ] [ 7; 0; 0 ] in
  let s7 = Tuple.make ~side:Tuple.S ~value:7 ~arrival:0 in
  let policy = scripted [ [ s7 ]; [ s7 ]; [ s7 ] ] in
  let result = Join_sim.run ~trace:t ~policy ~capacity:1 ~warmup:2 () in
  check_int "total" 2 result.Join_sim.total_results;
  check_int "counted after warmup" 1 result.Join_sim.counted_results

let test_window_blocks_expired () =
  let t = trace [ 0; 0; 7 ] [ 7; 0; 0 ] in
  let s7 = Tuple.make ~side:Tuple.S ~value:7 ~arrival:0 in
  let policy = scripted [ [ s7 ]; [ s7 ]; [ s7 ] ] in
  let narrow = Window.create ~width:1 in
  let result =
    Join_sim.run ~trace:t ~policy ~capacity:1 ~window:narrow ()
  in
  check_int "expired tuple joins nothing" 0 result.Join_sim.total_results;
  let wide = Window.create ~width:2 in
  let result =
    Join_sim.run ~trace:t ~policy ~capacity:1 ~window:wide ()
  in
  check_int "inside window" 1 result.Join_sim.total_results

(* Each kind of invalid selection fails the validated run with a message
   naming the policy, the step and the violation. *)
let test_validation_catches_cheating () =
  let t = trace [ 1; 2 ] [ 3; 4 ] in
  let r0 = Tuple.make ~side:Tuple.R ~value:1 ~arrival:0 in
  let s0 = Tuple.make ~side:Tuple.S ~value:3 ~arrival:0 in
  let r1 = Tuple.make ~side:Tuple.R ~value:2 ~arrival:1 in
  let alien = Tuple.make ~side:Tuple.R ~value:99 ~arrival:77 in
  let contains ~sub msg =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun (label, decisions, capacity, violation) ->
      match
        Join_sim.run ~trace:t ~policy:(scripted decisions) ~capacity
          ~validate:true ()
      with
      | _ -> Alcotest.failf "%s: expected a validation failure" label
      | exception Failure msg ->
        List.iter
          (fun sub ->
            if not (contains ~sub msg) then
              Alcotest.failf "%s: message %S lacks %S" label msg sub)
          [ "policy scripted at t=1: "; violation ])
    [
      ("over capacity", [ [ r0 ]; [ r0; r1 ] ], 1, "size 2 exceeds capacity 1");
      ( "stranger",
        [ [ r0 ]; [ alien ] ],
        1,
        "neither cached nor arriving" );
      ("duplicate", [ [ r0; s0 ]; [ r0; r0 ] ], 2, "duplicates");
    ]

let test_recount_agrees () =
  let cfg = Ssj_workload.Config.tower () in
  let r, s = Ssj_workload.Config.predictors cfg in
  let t = Trace.generate ~r ~s ~rng:(rng 71) ~length:300 in
  let policy = Ssj_workload.Factory.trend_heeb cfg () in
  let result, decisions = Join_sim.run_logged ~trace:t ~policy ~capacity:6 () in
  (* Arrivals at step now join the cache decided at now - 1. *)
  let recount = ref 0 in
  for now = 1 to Array.length decisions - 1 do
    let r_t, s_t = Trace.arrivals t now in
    let count = Ssj_conform.Ref_sim.count_matches ~window:None ~band:0 ~now in
    recount :=
      !recount + count decisions.(now - 1) r_t + count decisions.(now - 1) s_t
  done;
  check_int "recount matches" result.Join_sim.total_results !recount;
  Array.iter
    (fun cache ->
      check_bool "capacity respected" true (List.length cache <= 6))
    decisions

let test_share_samples () =
  let cfg = Ssj_workload.Config.tower () in
  let r, s = Ssj_workload.Config.predictors cfg in
  let t = Trace.generate ~r ~s ~rng:(rng 72) ~length:100 in
  let policy = Ssj_workload.Factory.trend_heeb cfg () in
  let result =
    Join_sim.run ~trace:t ~policy ~capacity:6 ~record_share:20 ()
  in
  check_int "five samples" 5 (List.length result.Join_sim.share_samples);
  List.iter
    (fun (_, share) ->
      check_bool "share in [0,1]" true (share >= 0.0 && share <= 1.0))
    result.Join_sim.share_samples

(* --- cache simulator --------------------------------------------------- *)

let test_cache_sim_hits_misses () =
  let reference = [| 1; 1; 2; 1 |] in
  let policy = Classic.lru () in
  let result =
    Cache_sim.run ~reference ~policy ~capacity:2 ()
  in
  check_int "hits" 2 result.Cache_sim.hits;
  check_int "misses" 2 result.Cache_sim.misses;
  check_int "hits+misses = length" 4
    (result.Cache_sim.hits + result.Cache_sim.misses)

let test_cache_sim_zero_capacity () =
  let reference = [| 1; 1; 1 |] in
  let result =
    Cache_sim.run ~reference ~policy:(Classic.lru ()) ~capacity:0 ()
  in
  check_int "no hits without a cache" 0 result.Cache_sim.hits

let test_scored_eviction_scores_once () =
  (* One score per slot: each reference scores the referenced value
     once, whether it hits, fills a free slot or forces an eviction —
     the other m entries keep the scores they were given (a list cache
     re-scored all m + 1 candidates on every full miss). *)
  let calls = ref 0 in
  let policy =
    Classic.lfu_model ~prob:(fun v ->
        incr calls;
        1.0 /. float_of_int (1 + (v mod 3)))
  in
  let sim = Cache_sim.create ~policy ~capacity:6 in
  Array.iteri
    (fun now value ->
      calls := 0;
      ignore (Cache_sim.access sim ~now value);
      check_int (Printf.sprintf "t=%d: one score call" now) 1 !calls)
    (Array.init 40 (fun t -> (t * 7) mod 11))

let test_cache_sim_bad_drop () =
  (* A drop outside [0, n] on a full miss is refused, naming the policy
     and the step. *)
  let policy =
    {
      Policy.cname = "BAD";
      access =
        (fun ~now:_ ~cached ~value:_ ~hit ~capacity ->
          if hit || cached.Policy.n < capacity then Policy.no_drop
          else cached.Policy.n + 1);
    }
  in
  Alcotest.check_raises "out-of-range drop"
    (Invalid_argument
       "Cache_sim: policy BAD at step 2: drop 3, expected a candidate in [0, 2]")
    (fun () -> ignore (Cache_sim.run ~reference:[| 1; 2; 3 |] ~policy ~capacity:2 ()))

(* Allocation is exact, so this gate has no timing noise: the minor
   words of a run over N and over 2N references of a synthetic AR(1)
   series differ by a constant (table growth), not by a per-access
   cost.  Policies and the h2 surface are built before the window. *)
let test_cache_sim_allocation_flat () =
  let reference =
    Ssj_workload.Real.to_bins
      (Ssj_workload.Real.synthetic_ar1 ~rng:(rng 42) ~days:800 ())
  in
  let fitted = Ssj_model.Fit.ar1_of_ints reference in
  let surface = Ssj_workload.Factory.real_surface ~params:fitted ~capacity:25 in
  let words reference policy capacity =
    Gc.minor ();
    let m0, _, _ = Gc.counters () in
    ignore (Sys.opaque_identity (Cache_sim.run ~reference ~policy ~capacity ()));
    let m1, _, _ = Gc.counters () in
    m1 -. m0
  in
  List.iter
    (fun capacity ->
      List.iter
        (fun (name, make) ->
          let short = Array.sub reference 0 400 in
          let p_short = make short and p_long = make reference in
          let a = words short p_short capacity in
          let b = words reference p_long capacity in
          if b -. a > 4096.0 then
            Alcotest.failf "%s cap %d: %.0f words over 400 accesses, %.0f over 800"
              name capacity a b)
        [
          ("LRU", fun _ -> Classic.lru ());
          ("LFU", fun _ -> Classic.lfu ());
          ("LFD", fun reference -> Classic.lfd ~reference);
          ("RAND", fun _ -> Classic.rand_cache ~rng:(rng 5));
          ("HEEB(h2)", fun _ -> Ssj_workload.Factory.real_heeb_of_surface surface ());
        ])
    [ 25; 300 ]

let test_lfu_tie_break () =
  (* Among the least-frequent entries the one inserted last is evicted
     (the fetched value enters at the head, and the strict [<] keeps the
     earliest entry in list order); a fetched value less frequent than
     every entry is not admitted. *)
  let reference = [| 1; 2; 3; 2; 4; 1; 2; 5 |] in
  let _, decisions =
    Cache_sim.run_logged ~reference ~policy:(Classic.lfu ()) ~capacity:2 ()
  in
  let sets = Array.to_list (Array.map (List.sort Int.compare) decisions) in
  Alcotest.(check (list (list int)))
    "LFU cache after each reference"
    [ [ 1 ]; [ 1; 2 ];
      [ 1; 3 ] (* 1 and 2 tie at one use: 2, inserted last, goes *);
      [ 1; 2 ] (* 1 and 3 tie: 3 goes *);
      [ 2; 4 ] (* 1 (one use) goes, 2 (two) stays *);
      [ 1; 2 ] (* 4 goes *);
      [ 1; 2 ];
      [ 1; 2 ] (* 5 (one use) is below both: not admitted *) ]
    sets

let test_lfd_lower_bounds_all_policies () =
  (* On random references, no online policy beats Belady. *)
  let r = rng 111 in
  for _ = 1 to 8 do
    let reference = Array.init 150 (fun _ -> Ssj_prob.Rng.int r 8) in
    let capacity = 2 + Ssj_prob.Rng.int r 3 in
    let lfd_hits =
      (Cache_sim.run ~reference ~policy:(Classic.lfd ~reference) ~capacity ())
        .Cache_sim
        .hits
    in
    List.iter
      (fun policy ->
        let hits =
          (Cache_sim.run ~reference ~policy ~capacity ())
            .Cache_sim
            .hits
        in
        if hits > lfd_hits then
          Alcotest.failf "%s (%d hits) beat LFD (%d)" policy.Policy.cname hits
            lfd_hits)
      [
        Classic.lru ();
        Classic.lfu ();
        Classic.lruk ~k:2;
        Classic.rand_cache ~rng:(rng 5);
      ]
  done

let test_band_and_window_compose () =
  (* Band matching and window expiry interact: a band match outside the
     window must not count. *)
  let trace =
    Trace.of_values ~r:[| -9; -8; 6 |] ~s:[| 5; -1; -2 |]
  in
  let s5 = Tuple.make ~side:Tuple.S ~value:5 ~arrival:0 in
  let policy = scripted [ [ s5 ]; [ s5 ]; [ s5 ] ] in
  let run ?window ?band () =
    (Join_sim.run ~trace ~policy ~capacity:1 ?window ?band ())
      .Join_sim
      .total_results
  in
  check_int "band only" 1 (run ~band:1 ());
  check_int "band + wide window" 1 (run ~band:1 ~window:(Window.create ~width:2) ());
  check_int "band + narrow window" 0
    (run ~band:1 ~window:(Window.create ~width:1) ())

(* --- runner ------------------------------------------------------------ *)

let test_runner_summaries () =
  let cfg = Ssj_workload.Config.tower () in
  let traces =
    Array.init 3 (fun i ->
        let r, s = Ssj_workload.Config.predictors cfg in
        Trace.generate ~r ~s ~rng:(rng (100 + i)) ~length:200)
  in
  let summaries =
    Runner.compare_joining
      ~setup:{ Runner.capacity = 5; warmup = 20; window = None }
      ~traces
      ~policies:(Ssj_workload.Factory.trend_policies cfg ~seed:1 ())
      ()
  in
  check_int "OPT + 4 policies" 5 (List.length summaries);
  let opt = List.hd summaries in
  check_bool "OPT labelled" true (opt.Runner.label = "OPT-OFFLINE");
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "%s below OPT" s.Runner.label)
        true
        (s.Runner.mean <= opt.Runner.mean +. 1e-9))
    (List.tl summaries)

let test_default_warmup () =
  check_int "4x rule" 40 (Runner.default_warmup ~capacity:10)

let suite =
  [
    Alcotest.test_case "join counting" `Quick test_join_counts_basic;
    Alcotest.test_case "same-time exclusion" `Quick
      test_same_time_match_not_counted;
    Alcotest.test_case "duplicate values" `Quick
      test_duplicate_values_both_count;
    Alcotest.test_case "warm-up discount" `Quick test_warmup_discounts;
    Alcotest.test_case "sliding window blocks expired" `Quick
      test_window_blocks_expired;
    Alcotest.test_case "validation" `Quick test_validation_catches_cheating;
    Alcotest.test_case "recount agreement" `Quick test_recount_agrees;
    Alcotest.test_case "share sampling" `Quick test_share_samples;
    Alcotest.test_case "cache sim accounting" `Quick
      test_cache_sim_hits_misses;
    Alcotest.test_case "cache sim zero capacity" `Quick
      test_cache_sim_zero_capacity;
    Alcotest.test_case "LFD lower-bounds online policies" `Quick
      test_lfd_lower_bounds_all_policies;
    Alcotest.test_case "band and window compose" `Quick
      test_band_and_window_compose;
    Alcotest.test_case "runner summaries" `Quick test_runner_summaries;
    Alcotest.test_case "default warm-up" `Quick test_default_warmup;
    Alcotest.test_case "scored eviction scores each entry once" `Quick
      test_scored_eviction_scores_once;
    Alcotest.test_case "LFU tie-break" `Quick test_lfu_tie_break;
    Alcotest.test_case "cache sim refuses an out-of-range drop" `Quick
      test_cache_sim_bad_drop;
    Alcotest.test_case "cache sim allocation does not grow with N" `Quick
      test_cache_sim_allocation_flat;
  ]
