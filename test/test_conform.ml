(* Conformance subsystem: the registry passes on the honest engine, a
   deliberately injected fast-path bug is caught and shrunk to a tiny
   replayable repro, and repro JSON round-trips. *)

open Ssj_conform

let drop_formatter =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_registry_passes () =
  (* Oracles + laws at a reduced case count (golden digests are
     exercised by @conformance, not the quick gate). *)
  let reports =
    Conform.run_checks ~seed:271 ~count:25 ~out:drop_formatter
      (Oracles.all @ Laws.all)
  in
  Helpers.check_int "all registered checks ran" 19 (List.length reports);
  List.iter
    (fun (r : Conform.report) ->
      match r.Conform.outcome with
      | Check.Pass _ -> ()
      | Check.Fail { detail; _ } ->
        Alcotest.fail
          (Printf.sprintf "%s failed: %s" r.Conform.check.Check.name detail))
    reports;
  Helpers.check_bool "ok reports" true (Conform.ok reports)

let join_sim_check () =
  match
    List.find_opt
      (fun (c : Check.t) ->
        c.Check.name = "oracle:join-sim/indexed-vs-listscan")
      Oracles.all
  with
  | Some c -> c
  | None -> Alcotest.fail "indexed join-sim oracle not registered"

let test_injected_skew_caught_and_shrunk () =
  let check = join_sim_check () in
  let replay = Option.get check.Check.replay in
  Fun.protect
    ~finally:(fun () -> Ssj_engine.Join_index.Testhook.set_band_probe_skew 0)
    (fun () ->
      Ssj_engine.Join_index.Testhook.set_band_probe_skew 1;
      match check.Check.run ~seed:42 ~count:200 with
      | Check.Pass _ ->
        Alcotest.fail "injected band-probe skew escaped the oracle"
      | Check.Fail { case = None; _ } ->
        Alcotest.fail "violation carried no case to shrink"
      | Check.Fail { case = Some case; _ } ->
        let still_fails c = replay c <> None in
        Helpers.check_bool "violation replays" true (still_fails case);
        let small, stats = Shrink.minimize ~still_fails case in
        Helpers.check_bool "shrunk to <= 20 steps" true
          (Case.length small <= 20);
        Helpers.check_bool "shrinking never grows the trace" true
          (Case.length small <= Case.length case);
        Helpers.check_int "stats record the original size"
          (Case.length case) stats.Shrink.from_steps;
        Helpers.check_int "stats record the final size" (Case.length small)
          stats.Shrink.to_steps;
        Helpers.check_bool "minimized case still violates" true
          (still_fails small);
        (* The repro survives a save/load round trip and still fails. *)
        let path = Filename.temp_file "ssj_repro" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            (match
               Case.save ~check:check.Check.name ~detail:"injected band skew"
                 small ~filename:path
             with
            | Ok () -> ()
            | Error msg -> Alcotest.fail ("repro save: " ^ msg));
            match Case.load ~filename:path with
            | Error msg -> Alcotest.fail ("repro load: " ^ msg)
            | Ok { Case.case = loaded; check = name; _ } ->
              Alcotest.(check string)
                "check name round-trips" check.Check.name name;
              Helpers.check_bool "loaded case still violates" true
                (still_fails loaded)));
  (* Hook restored: the very same minimized scenario is clean again. *)
  let reports =
    Conform.run_checks ~seed:42 ~count:200 ~out:drop_formatter
      [ join_sim_check () ]
  in
  Helpers.check_bool "oracle clean once the skew is removed" true
    (Conform.ok reports)

let test_repro_round_trip () =
  let case =
    {
      Case.r_values = [| -3; 0; 7 |];
      s_values = [| 7; -3; 0 |];
      capacity = 2;
      band = 1;
      window = Some 4;
      policy = "PROB";
      seed = 1234;
    }
  in
  let path = Filename.temp_file "ssj_repro_rt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Strings round-trip exactly, quotes, backslashes and newlines
         included. *)
      let awkward = "fast 3 <> ref 2: \"band\" \\ skew\nsecond line" in
      (match
         Case.save ~check:"oracle:join-sim/indexed-vs-listscan"
           ~detail:awkward case ~filename:path
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("repro save: " ^ msg));
      match Case.load ~filename:path with
      | Error msg -> Alcotest.fail msg
      | Ok { Case.case = c; check; detail } ->
        Alcotest.(check string)
          "check" "oracle:join-sim/indexed-vs-listscan" check;
        Alcotest.(check string) "detail" awkward detail;
        Helpers.check_bool "case equal" true (c = case))

let test_repro_save_unwritable () =
  (* The directory is a regular file, so the path cannot be created. *)
  let dir = Filename.temp_file "ssj_repro_dir" "" in
  let case =
    {
      Case.r_values = [| 1 |];
      s_values = [| 1 |];
      capacity = 1;
      band = 0;
      window = None;
      policy = "RAND";
      seed = 0;
    }
  in
  let result =
    Case.save ~check:"c" ~detail:"d" case
      ~filename:(Filename.concat dir "repro.json")
  in
  Sys.remove dir;
  Helpers.check_bool "save reports an error" true (Result.is_error result)

let test_shrink_minimizes_synthetic () =
  (* Failure = "some R value is 5": the shrinker must isolate a single
     step and zero out everything else. *)
  let rng = Helpers.rng 9 in
  let case =
    {
      Case.r_values =
        Array.init 30 (fun i ->
            if i = 17 then 5 else Ssj_prob.Rng.int rng 9 - 4);
      s_values = Array.init 30 (fun _ -> Ssj_prob.Rng.int rng 9 - 4);
      capacity = 6;
      band = 2;
      window = Some 5;
      policy = "RAND";
      seed = 7;
    }
  in
  let still_fails (c : Case.t) = Array.exists (fun v -> v = 5) c.Case.r_values in
  let small, stats = Shrink.minimize ~still_fails case in
  Helpers.check_bool "still fails" true (still_fails small);
  Helpers.check_int "one step isolated" 1 (Case.length small);
  Helpers.check_int "capacity minimized" 1 small.Case.capacity;
  Helpers.check_int "band minimized" 0 small.Case.band;
  Helpers.check_bool "window dropped" true (small.Case.window = None);
  Helpers.check_bool "budget respected" true
    (stats.Shrink.evals <= Shrink.default_budget.Shrink.max_evals)

let test_artifact_cross_check () =
  let digests =
    [
      { Golden.key = "fig8/cap25/RAND/mean"; hex = Printf.sprintf "%h" 4066.22 };
      { Golden.key = "fig8/cap25/PROB/mean"; hex = Printf.sprintf "%h" 4117.9 };
    ]
  in
  let write content =
    let path = Filename.temp_file "ssj_bench" ".json" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  let artifact =
    "{\"sweep\": {\"policies\": [{\"name\": \"RAND\", \"mean\": 4066.2200, \
     \"stddev\": 1.0}, {\"name\": \"PROB\", \"mean\": 4117.9000, \"stddev\": \
     2.0}]}, \"legacy_sweep\": {}}"
  in
  let path = write artifact in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Golden.check_artifact ~filename:path digests with
      | Check.Pass { cases; _ } -> Helpers.check_int "both policies" 2 cases
      | Check.Fail { detail; _ } -> Alcotest.fail detail);
      (* A drifted mean must be flagged. *)
      let drifted =
        [
          {
            Golden.key = "fig8/cap25/RAND/mean";
            hex = Printf.sprintf "%h" 4066.23;
          };
          {
            Golden.key = "fig8/cap25/PROB/mean";
            hex = Printf.sprintf "%h" 4117.9;
          };
        ]
      in
      (match Golden.check_artifact ~filename:path drifted with
      | Check.Pass _ -> Alcotest.fail "drifted rounding must fail"
      | Check.Fail _ -> ());
      (* The reader follows .sweep.policies, not the text layout: other
         key orders and no legacy block pass. *)
      let reordered =
        write
          "{\"schema_version\": 4, \"sweep\": {\"policies\": [{\"mean\": \
           4066.2200, \"stddev\": 1.0, \"name\": \"RAND\"}, {\"stddev\": 2.0, \
           \"name\": \"PROB\", \"mean\": 4117.9000}], \"runs\": 50}}"
      in
      (match Golden.check_artifact ~filename:reordered digests with
      | Check.Pass { cases; _ } -> Helpers.check_int "reordered keys" 2 cases
      | Check.Fail { detail; _ } -> Alcotest.fail detail);
      Sys.remove reordered;
      (* No sweep block: a failure that names the file. *)
      let sweepless = write "{\"schema_version\": 4, \"robustness\": {}}" in
      (match Golden.check_artifact ~filename:sweepless digests with
      | Check.Pass _ -> Alcotest.fail "an artifact without a sweep must fail"
      | Check.Fail { detail; _ } ->
        Helpers.check_bool "failure names the file" true
          (String.length detail >= String.length sweepless
          && String.sub detail 0 (String.length sweepless) = sweepless));
      Sys.remove sweepless)

let test_compare_digests () =
  let d key hex = { Golden.key; hex } in
  let expected = [ d "a" "0x1p+1"; d "b" "0x1p+2" ] in
  (match
     Golden.compare_digests ~what:"t" ~expected
       [ d "a" "0x1p+1"; d "b" "0x1p+2" ]
   with
  | Check.Pass { cases; _ } -> Helpers.check_int "both keys" 2 cases
  | Check.Fail { detail; _ } -> Alcotest.fail detail);
  (match
     Golden.compare_digests ~what:"t" ~expected
       [ d "a" "0x1p+1"; d "b" "0x1.8p+2" ]
   with
  | Check.Pass _ -> Alcotest.fail "bit drift must fail"
  | Check.Fail _ -> ());
  (match
     Golden.compare_digests ~what:"t" ~expected [ d "a" "0x1p+1" ]
   with
  | Check.Pass _ -> Alcotest.fail "missing key must fail"
  | Check.Fail _ -> ());
  match Golden.compare_digests ~what:"t" ~expected:[] [ d "a" "0x1p+1" ] with
  | Check.Pass _ -> Alcotest.fail "empty expectations must fail"
  | Check.Fail _ -> ()

(* One golden:figures/<name> check per figure-table entry, in table
   order, each with one recorded digest.  Nothing here runs a figure. *)
let test_figure_pins_registered () =
  let names =
    List.map
      (fun (f : Ssj_workload.Experiments.figure) ->
        f.Ssj_workload.Experiments.name)
      Ssj_workload.Experiments.figures
  in
  let prefix = "golden:figures/" in
  let pinned =
    List.filter_map
      (fun (c : Check.t) ->
        let n = c.Check.name and k = String.length prefix in
        if String.length n > k && String.sub n 0 k = prefix then
          Some (String.sub n k (String.length n - k))
        else None)
      (Golden.checks ())
  in
  Alcotest.(check (list string)) "one pin per table entry" names pinned;
  Helpers.check_int "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check (list string)) "one recorded digest per entry"
    (List.map (fun n -> "figures/" ^ n) names)
    (List.map (fun d -> d.Golden.key) Golden.expected_figures)

let suite =
  [
    Alcotest.test_case "registry passes on the honest engine" `Quick
      test_registry_passes;
    Alcotest.test_case "injected band skew: caught, shrunk, replayable"
      `Quick test_injected_skew_caught_and_shrunk;
    Alcotest.test_case "repro JSON round trip" `Quick test_repro_round_trip;
    Alcotest.test_case "repro save to an unwritable path" `Quick
      test_repro_save_unwritable;
    Alcotest.test_case "shrinker isolates a synthetic failure" `Quick
      test_shrink_minimizes_synthetic;
    Alcotest.test_case "artifact rounding cross-check" `Quick
      test_artifact_cross_check;
    Alcotest.test_case "digest comparison" `Quick test_compare_digests;
    Alcotest.test_case "one golden pin per figure-table entry" `Quick
      test_figure_pins_registered;
  ]
