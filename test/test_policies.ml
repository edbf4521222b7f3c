open Ssj_stream
open Ssj_core
open Helpers

let tup side value arrival = Tuple.make ~side ~value ~arrival

let test_keep_top () =
  let a = tup Tuple.R 1 0 and b = tup Tuple.S 2 1 and c = tup Tuple.R 3 2 in
  let score t = float_of_int t.Tuple.value in
  let kept = keep_top ~capacity:2 ~score [ a; b; c ] in
  check_bool "keeps top two" true
    (List.exists (Tuple.equal c) kept && List.exists (Tuple.equal b) kept);
  check_int "size" 2 (List.length kept);
  check_int "capacity 0" 0 (List.length (keep_top ~capacity:0 ~score [ a; b ]))

let test_keep_top_tiebreak () =
  let old_t = tup Tuple.R 5 0 and new_t = tup Tuple.S 5 9 in
  let kept = keep_top ~capacity:1 ~score:(fun _ -> 1.0) [ old_t; new_t ] in
  check_bool "newer preferred" true (List.exists (Tuple.equal new_t) kept)

let test_validate_selection () =
  let cached = [ tup Tuple.R 1 0 ] and arrivals = [ tup Tuple.S 2 1 ] in
  let ok sel = Policy.validate_join_selection ~cached ~arrivals ~capacity:1 sel in
  check_bool "valid" true (ok [ tup Tuple.S 2 1 ] = Ok ());
  check_bool "oversize rejected" true (ok (cached @ arrivals) <> Ok ());
  check_bool "stranger rejected" true (ok [ tup Tuple.R 9 5 ] <> Ok ());
  check_bool "duplicate rejected" true
    (Policy.validate_join_selection ~cached ~arrivals ~capacity:3
       [ tup Tuple.R 1 0; tup Tuple.R 1 0 ]
    <> Ok ())

let run_policy policy ~capacity steps =
  (* steps: list of (r_value, s_value); returns final cache. *)
  let cache = ref [] in
  List.iteri
    (fun now (rv, sv) ->
      let arrivals = [ tup Tuple.R rv now; tup Tuple.S sv now ] in
      cache :=
        policy.Policy.select ~now ~cached:!cache ~arrivals ~capacity)
    steps;
  !cache

let test_rand_respects_capacity () =
  let policy = Baselines.rand ~rng:(rng 5) () in
  let cache =
    run_policy policy ~capacity:3 [ (1, 2); (3, 4); (5, 6); (7, 8) ]
  in
  check_int "capacity respected" 3 (List.length cache)

let test_rand_discards_dead_first () =
  (* remaining = value - 95 - now: at steps 0 and 1 only the values
     >= 100 live. *)
  let lifetime = Baselines.Trend { r_add = -95; s_add = -95; speed = 1 } in
  let policy = Baselines.rand ~rng:(rng 5) ~lifetime () in
  let cache = run_policy policy ~capacity:2 [ (100, 1); (2, 101) ] in
  let values = List.map (fun t -> t.Tuple.value) cache |> List.sort compare in
  Alcotest.(check (list int)) "live tuples survive" [ 100; 101 ] values

let test_prob_prefers_frequent_partner_values () =
  let policy = Baselines.prob () in
  (* R keeps producing 7; an S tuple with value 7 should be retained over
     an S tuple with value 8. *)
  let cache =
    run_policy policy ~capacity:1
      [ (7, 7); (7, 8); (7, 9) ]
  in
  (match cache with
  | [ t ] -> check_int "kept the popular value" 7 t.Tuple.value
  | _ -> Alcotest.fail "expected a single cached tuple");
  (* And it must be the S tuple (joins future R arrivals). *)
  (match cache with
  | [ t ] -> check_bool "S side" true (t.Tuple.side = Tuple.S)
  | _ -> ())

let test_life_weighs_lifetime () =
  (* remaining = value - now.  Two S tuples compete for one slot; LIFE
     must keep the one with the longer remaining lifetime. *)
  let lifetime = Baselines.Trend { r_add = 0; s_add = 0; speed = 1 } in
  let policy = Baselines.life ~lifetime () in
  let cache = run_policy policy ~capacity:1 [ (3, 3); (9, 9); (3, 3) ] in
  (* At step 2, after R history [3;9;3], value 3 has count 2 and value 9
     count 1; lifetimes 1 vs 7: scores 2 vs 7 -> keep 9. *)
  (match cache with
  | [ t ] -> check_int "LIFE keeps 9" 9 t.Tuple.value
  | _ -> Alcotest.fail "expected one tuple");
  (* At step 2 the 2s are dead (lifetime 0) though R's history is mostly
     2s, and the live R 9 has never been seen on S (estimate 0): both
     products are 0, and the dead tuples go first. *)
  let cache =
    run_policy (Baselines.life ~lifetime ()) ~capacity:1
      [ (2, 2); (2, 2); (9, 2) ]
  in
  match cache with
  | [ t ] -> check_int "dead tuples discarded first" 9 t.Tuple.value
  | _ -> Alcotest.fail "expected one tuple"

let test_prob_model_is_total_preorder () =
  let policy =
    Baselines.prob_model
      ~partner_prob:(fun t -> if t.Tuple.value = 1 then 0.9 else 0.1)
      ()
  in
  let cache = run_policy policy ~capacity:1 [ (1, 2); (2, 1) ] in
  (match cache with
  | [ t ] -> check_int "highest model probability kept" 1 t.Tuple.value
  | _ -> Alcotest.fail "expected one tuple")

(* --- classic caching policies ---------------------------------------- *)

let run_cache policy ~capacity reference =
  let result =
    Ssj_engine.Cache_sim.run ~reference ~policy ~capacity ()
  in
  result.Ssj_engine.Cache_sim.hits

let test_lru_sequence () =
  (* Classic LRU trace: A B C A with capacity 2 -> A misses again? No:
     A B C evicts A (LRU), so final A misses: 0 hits. A B A C A:
     A(m) B(m) A(h) C(m, evict B) A(h). *)
  let to_ref = Array.of_list in
  check_int "ABCA" 0 (run_cache (Classic.lru ()) ~capacity:2 (to_ref [ 1; 2; 3; 1 ]));
  check_int "ABACA" 2
    (run_cache (Classic.lru ()) ~capacity:2 (to_ref [ 1; 2; 1; 3; 1 ]))

let test_lfu_keeps_heavy_hitters () =
  (* Value 1 referenced often; LFU must not evict it for one-off values. *)
  let reference = [| 1; 1; 1; 2; 3; 1; 4; 1; 5; 1 |] in
  let hits = run_cache (Classic.lfu ()) ~capacity:2 reference in
  (* 1 hits on each re-reference after the first: 5 hits; the singletons
     always miss. *)
  check_int "heavy hitter stays" 5 hits

let test_lfd_is_optimal_on_small_traces () =
  (* LFD vs exhaustive optimum on random small traces. *)
  let r = rng 77 in
  for _ = 1 to 25 do
    let n = 8 + Ssj_prob.Rng.int r 5 in
    let reference =
      Array.init n (fun _ -> Ssj_prob.Rng.int r 4)
    in
    let capacity = 1 + Ssj_prob.Rng.int r 2 in
    let lfd_hits = run_cache (Classic.lfd ~reference) ~capacity reference in
    (* Brute force: maximum hits over all eviction choices. *)
    let rec best t cache =
      if t >= Array.length reference then 0
      else begin
        let v = reference.(t) in
        if List.mem v cache then 1 + best (t + 1) cache
        else begin
          let with_insert =
            if List.length cache < capacity then best (t + 1) (v :: cache)
            else
              List.fold_left
                (fun acc evict ->
                  Stdlib.max acc
                    (best (t + 1) (v :: List.filter (fun x -> x <> evict) cache)))
                min_int cache
          in
          Stdlib.max with_insert (best (t + 1) cache)
        end
      end
    in
    let opt = best 0 [] in
    if lfd_hits <> opt then
      Alcotest.failf "LFD %d != OPT %d on %s (k=%d)" lfd_hits opt
        (String.concat ";" (Array.to_list (Array.map string_of_int reference)))
        capacity
  done

let test_lruk_falls_back_to_lru_order () =
  (* With k=2, a value referenced only once ranks below values referenced
     twice. Trace: 1 1 2 3 1 with capacity 2: when 3 arrives, cache {1,2};
     1 has two refs, 2 has one -> evict 2. Then 1 hits. *)
  let hits = run_cache (Classic.lruk ~k:2) ~capacity:2 [| 1; 1; 2; 3; 1 |] in
  check_int "evicts the single-reference page" 2 hits

let test_lfu_model_prefers_probable () =
  let prob v = if v = 1 then 0.9 else 0.01 in
  let policy = Classic.lfu_model ~prob in
  let hits = run_cache policy ~capacity:1 [| 1; 2; 1; 3; 1 |] in
  (* Value 1 is never evicted once cached: hits at steps 3 and 5. *)
  check_int "model-probable value kept" 2 hits

(* Scored caching policies compare only scores and list positions, never
   values, so an injective relabelling of the reference relabels every
   decision.  The relabelled values span +-1e9 and include [min_int] and
   [max_int], which the int-keyed state must treat like any other key. *)
let test_classic_relabelling_invariance () =
  let r = rng 11 in
  let reference = Array.init 400 (fun _ -> Ssj_prob.Rng.int r 12) in
  let label v =
    match v with
    | 0 -> min_int
    | 1 -> max_int
    | 2 -> 0
    | _ -> -1_000_000_000 + (v * 170_000_000) + Ssj_prob.Rng.int r 1000
  in
  let relabel = Array.init 12 label in
  let moved = Array.map (fun v -> relabel.(v)) reference in
  let sorted l = List.sort compare l in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun capacity ->
          let _, plain =
            Ssj_engine.Cache_sim.run_logged ~reference ~policy:(make reference)
              ~capacity ()
          in
          let _, hostile =
            Ssj_engine.Cache_sim.run_logged ~reference:moved
              ~policy:(make moved) ~capacity ()
          in
          Array.iteri
            (fun t kept ->
              if sorted (List.map (fun v -> relabel.(v)) kept)
                 <> sorted hostile.(t)
              then Alcotest.failf "%s cap %d differs at t=%d" name capacity t)
            plain)
        [ 1; 3; 7 ])
    [
      ("LRU", fun _ -> Classic.lru ());
      ("LFU", fun _ -> Classic.lfu ());
      ("LFD", fun reference -> Classic.lfd ~reference);
    ]

(* Allocation is exact, so this gate has no timing noise: the REAL
   caching pipeline's classic baselines at fig13 scale, words per access,
   simulator included.  The int-keyed state allocates ~24 (LRU), ~13
   (LFU) and ~7 (LFD) — one boxed float per scored entry and the copied
   prefix before the victim; polymorphic [Hashtbl] state allocated 33.8,
   32.0 and 22.4, above every gate. *)
let test_classic_allocation () =
  let reference =
    Ssj_workload.Real.to_bins
      (Ssj_workload.Real.synthetic_ar1 ~rng:(rng 42) ~days:365 ())
  in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  List.iter
    (fun (name, policy, gate) ->
      Gc.minor ();
      let before = allocated () in
      ignore
        (Sys.opaque_identity
           (Ssj_engine.Cache_sim.run ~reference ~policy ~capacity:100 ()));
      let words =
        (allocated () -. before) /. float_of_int (Array.length reference)
      in
      if words > gate then
        Alcotest.failf "%s allocated %.1f words per access (gate %.0f)" name
          words gate)
    [
      ("LRU", Classic.lru (), 28.0);
      ("LFU", Classic.lfu (), 16.0);
      ("LFD", Classic.lfd ~reference, 12.0);
    ]

let prop_keep_top_size_and_membership =
  qcheck "keep_top returns min(capacity, n) highest-scored candidates"
    QCheck2.Gen.(
      let* n = int_range 2 15 in
      let* capacity = int_range 0 8 in
      let* scores = list_repeat n (float_range (-5.0) 5.0) in
      return (capacity, scores))
    (fun (capacity, scores) ->
      let candidates =
        List.mapi (fun i _ -> tup Tuple.R i i) scores
      in
      let score t = List.nth scores t.Tuple.value in
      let kept = keep_top ~capacity ~score candidates in
      let expected_size = min capacity (List.length candidates) in
      List.length kept = expected_size
      && (* every kept tuple scores >= every dropped tuple *)
      List.for_all
        (fun k ->
          List.for_all
            (fun c ->
              List.exists (Tuple.equal c) kept || score k >= score c)
            candidates)
        kept)

(* PROB and LIFE see values only through their history counts, which
   need value equality and nothing else, so relabelling a trace's values
   injectively must leave every decision unchanged.  The wide labels span
   +-1e9 and reach past +-2^60; a dense history would size its arrays to
   that span (~1e9 words), so it must fall back to a hashed table.  The
   first 200 steps draw only narrow values, so the fallback also happens
   mid-run, carrying the counts gathered so far. *)
let test_history_wide_values () =
  let r = rng 23 in
  let draw t = Ssj_prob.Rng.int r (if t < 200 then 6 else 12) in
  let length = 500 in
  let narrow_r = Array.init length draw and narrow_s = Array.init length draw in
  let label v =
    match v with
    | 6 -> max_int
    | 7 -> min_int + 1
    | v when v < 6 -> v
    | v -> -1_000_000_000 + ((v - 8) * 650_000_000) + Ssj_prob.Rng.int r 1000
  in
  let relabel = Array.init 12 label in
  let wide a = Array.map (fun v -> relabel.(v)) a in
  let narrow = Trace.of_values ~r:narrow_r ~s:narrow_s
  and hostile = Trace.of_values ~r:(wide narrow_r) ~s:(wide narrow_s) in
  let window = Window.create ~width:12 in
  let lifetime = Baselines.Of_window window in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun capacity ->
          let decisions trace =
            snd
              (Ssj_engine.Join_sim.run_logged ~trace ~policy:(make ()) ~capacity
                 ~window ())
          in
          let plain = decisions narrow and moved = decisions hostile in
          let uids ts = List.map (fun (t : Tuple.t) -> t.Tuple.uid) ts in
          Array.iteri
            (fun t kept ->
              if uids kept <> uids moved.(t) then
                Alcotest.failf "%s cap %d differs at t=%d" name capacity t)
            plain)
        [ 2; 5; 9 ])
    [
      ("PROB", fun () -> Baselines.prob ());
      ("PROB(window)", fun () -> Baselines.prob ~lifetime ());
      ("LIFE", fun () -> Baselines.life ~lifetime ());
    ]

let suite =
  [
    Alcotest.test_case "keep_top" `Quick test_keep_top;
    prop_keep_top_size_and_membership;
    Alcotest.test_case "keep_top tiebreak" `Quick test_keep_top_tiebreak;
    Alcotest.test_case "selection validation" `Quick test_validate_selection;
    Alcotest.test_case "RAND capacity" `Quick test_rand_respects_capacity;
    Alcotest.test_case "RAND window-awareness" `Quick
      test_rand_discards_dead_first;
    Alcotest.test_case "PROB history frequencies" `Quick
      test_prob_prefers_frequent_partner_values;
    Alcotest.test_case "LIFE lifetime weighting" `Quick
      test_life_weighs_lifetime;
    Alcotest.test_case "PROB-model" `Quick test_prob_model_is_total_preorder;
    Alcotest.test_case "LRU" `Quick test_lru_sequence;
    Alcotest.test_case "LFU" `Quick test_lfu_keeps_heavy_hitters;
    Alcotest.test_case "LFD matches brute force" `Slow
      test_lfd_is_optimal_on_small_traces;
    Alcotest.test_case "LRU-k" `Quick test_lruk_falls_back_to_lru_order;
    Alcotest.test_case "A0-style model LFU" `Quick
      test_lfu_model_prefers_probable;
    Alcotest.test_case "classic relabelling invariance" `Quick
      test_classic_relabelling_invariance;
    Alcotest.test_case "classic allocation gate" `Quick
      test_classic_allocation;
    Alcotest.test_case "PROB/LIFE history on +-1e9 values" `Quick
      test_history_wide_values;
  ]
