open Ssj_stream
open Ssj_engine
open Ssj_workload
open Helpers
module Obs = Ssj_obs.Obs
module Json = Ssj_obs.Json

(* The suite flips the process-global gate; every test restores it. *)
let with_gate enabled f =
  let saved = Obs.on () in
  Obs.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Obs.set_enabled saved) f

let test_counter_basic () =
  with_gate true (fun () ->
      let c = Obs.Counter.create "test.counter_basic" in
      check_int "starts at zero" 0 (Obs.Counter.value c);
      Obs.Counter.incr c;
      Obs.Counter.add c 41;
      check_int "incr + add" 42 (Obs.Counter.value c);
      check_bool "name" true (String.equal (Obs.Counter.name c) "test.counter_basic"))

let test_counter_disabled_noop () =
  with_gate false (fun () ->
      let c = Obs.Counter.create "test.counter_disabled" in
      Obs.Counter.incr c;
      Obs.Counter.add c 100;
      check_int "disabled counter stays zero" 0 (Obs.Counter.value c))

let test_histogram_basic () =
  with_gate true (fun () ->
      let h = Obs.Histogram.create ~width:2 ~buckets:4 "test.hist_basic" in
      List.iter (Obs.Histogram.observe h) [ 0; 1; 3; 100; -5 ];
      check_int "count" 5 (Obs.Histogram.count h);
      (* -5 clamps to 0 for bucketing but sum/min are exact. *)
      check_int "sum" 99 (Obs.Histogram.sum h);
      check_int "min" (-5) (Obs.Histogram.min_value h);
      check_int "max" 100 (Obs.Histogram.max_value h);
      check_float "mean" 19.8 (Obs.Histogram.mean h))

let test_histogram_disabled_noop () =
  with_gate false (fun () ->
      let h = Obs.Histogram.create "test.hist_disabled" in
      Obs.Histogram.observe h 7;
      check_int "disabled histogram empty" 0 (Obs.Histogram.count h);
      check_float "empty mean is zero" 0.0 (Obs.Histogram.mean h))

let test_reset_and_snapshot () =
  with_gate true (fun () ->
      let c = Obs.Counter.create "test.reset_counter" in
      let h = Obs.Histogram.create "test.reset_hist" in
      Obs.Counter.add c 7;
      Obs.Histogram.observe h 3;
      let find name =
        List.find_opt
          (function
            | Obs.Counter_v { name = n; _ } | Obs.Histogram_v { name = n; _ } ->
              String.equal n name)
          (Obs.snapshot ())
      in
      (match find "test.reset_counter" with
      | Some (Obs.Counter_v { value; _ }) -> check_int "snapshot value" 7 value
      | _ -> Alcotest.fail "counter missing from snapshot");
      Obs.reset ();
      check_int "counter reset" 0 (Obs.Counter.value c);
      check_int "histogram reset" 0 (Obs.Histogram.count h);
      (match find "test.reset_counter" with
      | Some (Obs.Counter_v { value; _ }) -> check_int "post-reset view" 0 value
      | _ -> Alcotest.fail "counter missing after reset");
      (* Snapshots keep zero-valued metrics: shape is run-stable. *)
      check_bool "json has the key" true
        (Json.member "test.reset_counter"
           (Obs.json_of_snapshot (Obs.snapshot ()))
        = Some (Json.int 0)))

let test_summarize_empty () =
  let s = Runner.summarize ~label:"empty" [||] in
  check_bool "mean finite" true (Float.is_finite s.Runner.mean);
  check_float "mean zero" 0.0 s.Runner.mean;
  check_float "stddev zero" 0.0 s.Runner.stddev

let tower = Config.tower ()

let tower_traces ~runs ~length =
  Array.init runs (fun i ->
      let r, s = Config.predictors tower in
      Trace.generate ~r ~s ~rng:(rng (42 + (1009 * i))) ~length)

let sweep_means ~traces ~capacity =
  let setup =
    { Runner.capacity; warmup = Runner.default_warmup ~capacity; window = None }
  in
  Runner.compare_joining ~setup ~traces
    ~policies:(Factory.trend_policies tower ~seed:42 ())
    ~include_opt:false ()
  |> List.map (fun s -> (s.Runner.label, s.Runner.mean))

let test_obs_does_not_change_results () =
  (* The instrumentation must be observation-only: the same sweep with
     the gate on and off produces bit-identical means. *)
  let traces = tower_traces ~runs:4 ~length:600 in
  let off = with_gate false (fun () -> sweep_means ~traces ~capacity:25) in
  let on = with_gate true (fun () -> sweep_means ~traces ~capacity:25) in
  List.iter2
    (fun (label, m_off) (label', m_on) ->
      check_bool "same policy order" true (String.equal label label');
      check_float (label ^ " mean unchanged") m_off m_on)
    off on

let test_heeb_beats_rand_when_saturated () =
  (* The regression the degenerate capacity-50 sweep could never catch:
     on a saturating configuration (capacity 25 < live population) HEEB's
     expected-benefit eviction must strictly beat random eviction on
     paired runs.  Means over 20 paired traces; the gap is ~20 results
     (HEEB 1600.0 vs RAND 1578.5 at this seed), far beyond noise. *)
  let traces = tower_traces ~runs:20 ~length:2000 in
  let means = sweep_means ~traces ~capacity:25 in
  let mean label = List.assoc label means in
  check_bool
    (Printf.sprintf "HEEB (%.1f) > RAND (%.1f)" (mean "HEEB") (mean "RAND"))
    true
    (mean "HEEB" > mean "RAND")

let test_json_round_trip () =
  let awkward = "q\"uote \\ back\nline\ttab \001 caf\xc3\xa9" in
  let value =
    Json.Object
      [
        ("s", Json.String awkward);
        ("n", Json.fixed 4 4066.22);
        ("nan", Json.fixed 4 Float.nan);
        ("a", Json.Array [ Json.int (-3); Json.Null; Json.Bool true ]);
        ("empty", Json.Object []);
      ]
  in
  let text = Json.to_string value in
  check_bool "one line" true (not (String.contains text '\n'));
  check_bool "compact round trip" true (Json.of_string text = Ok value);
  check_bool "pretty round trip" true
    (Json.of_string (Json.pretty value) = Ok value);
  check_bool "number keeps its literal" true
    (Json.member "n" value = Some (Json.Number "4066.2200"));
  check_bool "non-finite becomes null" true
    (Json.member "nan" value = Some Json.Null);
  check_bool "unicode escapes decode to UTF-8" true
    (Json.of_string {|"\u00e9\ud83d\ude00"|}
    = Ok (Json.String "\xc3\xa9\xf0\x9f\x98\x80"));
  List.iter
    (fun bad ->
      check_bool (Printf.sprintf "rejects %S" bad) true
        (Result.is_error (Json.of_string bad)))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "01"; "1."; "\"\n\""; "\"\\x\""; "[1] 2";
      "\"\\ud800\""; "tru"; "{\"a\": 1,}" ]

let test_unwritable_event_file () =
  (* A path that cannot be created: its directory is a regular file. *)
  let file = Filename.temp_file "ssj_obs" ".tmp" in
  let path = Filename.concat file "events.jsonl" in
  with_gate true (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Obs.set_event_sink `Null;
          Sys.remove file)
        (fun () ->
          Obs.set_event_sink (`Path path);
          (match Obs.open_event_sink () with
          | Ok () -> Alcotest.fail "opened an event file under a regular file"
          | Error msg ->
            check_bool "error names the path" true
              (String.starts_with ~prefix:path msg));
          Obs.event ~name:"test.after_open_failure" [];
          (* Without the early open, the first event meets the failure
             inside a run; the run must finish with its usual result. *)
          Obs.set_event_sink (`Path path);
          let t = Trace.of_values ~r:[| 1; 2; 1; 2 |] ~s:[| 2; 1; 2; 1 |] in
          let run () =
            (Join_sim.run ~trace:t ~policy:(Ssj_core.Baselines.prob ())
               ~capacity:2 ())
              .Join_sim.total_results
          in
          let with_failing_sink = run () in
          Obs.set_event_sink `Null;
          check_int "same result as with no sink" (run ()) with_failing_sink))

let suite =
  [
    Alcotest.test_case "counter basic" `Quick test_counter_basic;
    Alcotest.test_case "counter disabled no-op" `Quick test_counter_disabled_noop;
    Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
    Alcotest.test_case "histogram disabled no-op" `Quick
      test_histogram_disabled_noop;
    Alcotest.test_case "reset + snapshot" `Quick test_reset_and_snapshot;
    Alcotest.test_case "Json: exact round trip, strict reader" `Quick
      test_json_round_trip;
    Alcotest.test_case "summarize of empty runs" `Quick test_summarize_empty;
    Alcotest.test_case "SSJ_OBS=1 does not change results" `Quick
      test_obs_does_not_change_results;
    Alcotest.test_case "HEEB beats RAND when saturated" `Slow
      test_heeb_beats_rand_when_saturated;
    Alcotest.test_case "unwritable SSJ_OBS_FILE is a typed error" `Quick
      test_unwritable_event_file;
  ]
