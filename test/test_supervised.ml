(* Supervised runner: Parallel error paths, retry/salvage semantics,
   step budgets, and checkpoint/resume bit-identity. *)

open Ssj_prob
open Ssj_stream
open Ssj_core
open Ssj_engine
open Ssj_workload

let tower = Config.tower ()

let tower_trace ~length ~seed =
  let r, s = Config.predictors tower in
  Trace.generate ~r ~s ~rng:(Rng.create seed) ~length

let no_supervision = { Runner.retries = 0; checkpoint = None }

(* The joining lineup under supervision: one [run_supervised] sweep per
   policy, [step_budget] threaded into each run. *)
let supervised_lineup ?step_budget ~setup ~traces ~policies () =
  List.map
    (fun (label, make) ->
      Runner.run_supervised ~label ~supervision:no_supervision
        (fun _run trace ->
          let { Runner.capacity; warmup; window } = setup in
          let result =
            Join_sim.run ~trace ~policy:(make ()) ~capacity ~warmup ?window
              ?step_budget ()
          in
          float_of_int result.Join_sim.counted_results)
        traces)
    policies

(* --- Parallel error paths ------------------------------------------- *)

let test_map_raising_job () =
  (* A raising job must propagate (not hang) and leave no orphaned
     domains behind: the very next Parallel.map must work. *)
  let raised =
    try
      ignore
        (Parallel.map ~jobs:4
           (fun i -> if i = 2 then failwith "boom" else i)
           (Array.init 64 Fun.id));
      false
    with Failure m -> m = "boom"
  in
  Helpers.check_bool "exception propagated" true raised;
  let next = Parallel.map ~jobs:4 (fun i -> i * 2) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "pool unharmed afterwards" [| 2; 4; 6 |] next

let test_try_map_slots () =
  let f x = if x mod 3 = 0 then failwith (string_of_int x) else float_of_int x in
  let arr = Array.init 20 (fun i -> i + 1) in
  let check_slots slots =
    Array.iteri
      (fun i slot ->
        let x = arr.(i) in
        match slot with
        | Ok v when x mod 3 <> 0 ->
          Helpers.check_float "value" (float_of_int x) v
        | Error (Failure m, _) when x mod 3 = 0 ->
          Alcotest.(check string) "failure labelled by input" (string_of_int x) m
        | Ok _ -> Alcotest.fail (Printf.sprintf "slot %d: expected Error" i)
        | Error _ -> Alcotest.fail (Printf.sprintf "slot %d: expected Ok" i))
      slots
  in
  check_slots (Parallel.try_map ~jobs:1 f arr);
  check_slots (Parallel.try_map ~jobs:4 f arr)

(* --- run_supervised -------------------------------------------------- *)

let test_supervised_salvage () =
  let inputs = [| 10; 20; 30; 40; 50 |] in
  let calls = Atomic.make 0 in
  let f run x =
    Atomic.incr calls;
    if run = 3 then failwith "crash3";
    float_of_int x
  in
  let supervision = { no_supervision with Runner.retries = 1 } in
  let check jobs =
    Atomic.set calls 0;
    let sup = Runner.run_supervised ~label:"X" ~supervision ~jobs f inputs in
    Helpers.check_int "salvaged" 4 sup.Runner.salvaged;
    Helpers.check_int "one failure" 1 (List.length sup.Runner.failures);
    (match sup.Runner.failures with
    | [ fl ] ->
      Helpers.check_int "failed run index" 3 fl.Runner.run;
      Helpers.check_int "retried once" 2 fl.Runner.attempts;
      Alcotest.(check string) "policy label" "X" fl.Runner.policy;
      (* [backtrace] may be empty when backtrace recording is off. *)
      Helpers.check_bool "error recorded" true (fl.Runner.error <> "")
    | _ -> Alcotest.fail "expected exactly one failure");
    Alcotest.(check (array (float 0.0)))
      "completed runs in input order"
      [| 10.0; 20.0; 30.0; 50.0 |]
      sup.Runner.summary.Runner.per_run;
    Helpers.check_bool "mean finite" true
      (Float.is_finite sup.Runner.summary.Runner.mean);
    Helpers.check_int "crashing run attempted twice" 6 (Atomic.get calls);
    Helpers.check_int "no checkpoint hits" 0 sup.Runner.checkpoint_hits
  in
  check 1;
  check 4

let test_supervised_matches_plain () =
  (* With nothing failing, supervision is invisible: same summaries as
     the plain runner, bit for bit. *)
  let traces = Array.init 4 (fun i -> tower_trace ~length:150 ~seed:(50 + i)) in
  let setup =
    { Runner.capacity = 6; warmup = 24; window = None }
  in
  let policies = Factory.trend_policies tower ~seed:7 () in
  let plain =
    Runner.compare_joining ~setup ~traces ~policies ~include_opt:false ()
  in
  let supervised = supervised_lineup ~setup ~traces ~policies () in
  List.iter2
    (fun (p : Runner.summary) (s : Runner.supervised) ->
      Helpers.check_int "no failures" 0 (List.length s.Runner.failures);
      Alcotest.(check string) "label" p.Runner.label s.Runner.summary.Runner.label;
      Alcotest.(check (array (float 0.0)))
        "per-run bit-identical" p.Runner.per_run s.Runner.summary.Runner.per_run)
    plain supervised

let test_step_budget () =
  let traces = Array.init 3 (fun i -> tower_trace ~length:100 ~seed:(80 + i)) in
  let setup = { Runner.capacity = 5; warmup = 20; window = None } in
  let policies = Factory.trend_policies tower ~seed:7 () in
  let tight = supervised_lineup ~step_budget:40 ~setup ~traces ~policies () in
  List.iter
    (fun (s : Runner.supervised) ->
      Helpers.check_int "every run aborted" 3 (List.length s.Runner.failures);
      Helpers.check_int "nothing salvaged" 0 s.Runner.salvaged;
      List.iter
        (fun (fl : Runner.failure) ->
          Helpers.check_bool "typed budget error" true
            (let is_sub s sub =
               let n = String.length s and m = String.length sub in
               let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
               go 0
             in
             is_sub fl.Runner.error "Step_budget_exceeded"))
        s.Runner.failures;
      (* The empty summary must stay NaN-free (schema promise). *)
      Helpers.check_float "mean zero" 0.0 s.Runner.summary.Runner.mean)
    tight;
  (* A budget that covers the whole trace changes nothing. *)
  let roomy = supervised_lineup ~step_budget:100 ~setup ~traces ~policies () in
  let plain =
    Runner.compare_joining ~setup ~traces ~policies ~include_opt:false ()
  in
  List.iter2
    (fun (p : Runner.summary) (s : Runner.supervised) ->
      Alcotest.(check (array (float 0.0)))
        "roomy budget bit-identical" p.Runner.per_run
        s.Runner.summary.Runner.per_run)
    plain roomy

(* --- checkpoint/resume ----------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_checkpoint_resume () =
  let traces = Array.init 6 (fun i -> tower_trace ~length:150 ~seed:(90 + i)) in
  let capacity = 6 in
  let f _run trace =
    let policy = Baselines.prob ~lifetime:(Config.lifetime tower) () in
    float_of_int
      (Join_sim.run ~trace ~policy ~capacity ~warmup:(4 * capacity) ())
        .Join_sim
        .counted_results
  in
  let uninterrupted =
    Runner.run_supervised ~label:"PROB" ~supervision:no_supervision f traces
  in
  let path = Filename.temp_file "ssj_ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let ckpt = Checkpoint.create ~path in
      let first =
        Runner.run_supervised ~label:"PROB"
          ~supervision:{ no_supervision with Runner.checkpoint = Some ckpt }
          f traces
      in
      Checkpoint.close ckpt;
      Alcotest.(check (array (float 0.0)))
        "checkpointed run matches plain" uninterrupted.Runner.summary.Runner.per_run
        first.Runner.summary.Runner.per_run;
      Helpers.check_int "fresh checkpoint: no hits" 0
        first.Runner.checkpoint_hits;
      (* Simulate a killed sweep: keep 3 records, then a torn line. *)
      let is_header l =
        String.length l >= 24
        && String.sub l 0 24 = "{\"ssj_checkpoint_schema\""
      in
      let header, records =
        match read_lines path with
        | h :: rest when is_header h -> (Some h, rest)
        | rest -> (None, rest)
      in
      Helpers.check_bool "schema header present" true (header <> None);
      Helpers.check_int "all runs recorded" 6 (List.length records);
      let oc = open_out path in
      Option.iter (fun h -> Printf.fprintf oc "%s\n" h) header;
      List.iteri
        (fun i line -> if i < 3 then Printf.fprintf oc "%s\n" line)
        records;
      output_string oc "{\"key\": \"|PROB|5\", \"hex\": \"0x1.f";
      close_out oc;
      let resumed_ckpt = Checkpoint.create ~path in
      Helpers.check_int "3 records survive truncation" 3
        (Checkpoint.loaded resumed_ckpt);
      Helpers.check_int "torn tail skipped, not fatal" 1
        (Checkpoint.corrupt_lines resumed_ckpt);
      let resumed =
        Runner.run_supervised ~label:"PROB"
          ~supervision:
            { no_supervision with Runner.checkpoint = Some resumed_ckpt }
          f traces
      in
      Checkpoint.close resumed_ckpt;
      Helpers.check_int "resume skipped the recorded runs" 3
        resumed.Runner.checkpoint_hits;
      Alcotest.(check (array (float 0.0)))
        "resumed sweep bit-identical to uninterrupted"
        uninterrupted.Runner.summary.Runner.per_run
        resumed.Runner.summary.Runner.per_run;
      Helpers.check_float "mean bit-identical"
        uninterrupted.Runner.summary.Runner.mean
        resumed.Runner.summary.Runner.mean ~eps:0.0;
      (* After the resume, the file holds all six records again; the
         torn line was isolated (newline healed before appending), not
         welded to the first resumed record. *)
      let final = Checkpoint.create ~path in
      Helpers.check_int "checkpoint complete after resume" 6
        (Checkpoint.loaded final);
      Helpers.check_int "torn line still isolated" 1
        (Checkpoint.corrupt_lines final))

let test_checkpoint_schema () =
  let path = Filename.temp_file "ssj_ckpt_schema" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Fresh files carry the schema header; records load through it. *)
      Sys.remove path;
      let ckpt = Checkpoint.create ~path in
      Checkpoint.record ckpt ~key:"a" 2.0;
      Checkpoint.close ckpt;
      (match read_lines path with
      | header :: _ ->
        Helpers.check_bool "header written first" true
          (String.length header >= 24
          && String.sub header 0 24 = "{\"ssj_checkpoint_schema\"")
      | [] -> Alcotest.fail "empty checkpoint file");
      let reloaded = Checkpoint.create ~path in
      Helpers.check_int "record loaded through header" 1
        (Checkpoint.loaded reloaded);
      Helpers.check_int "header is not corrupt" 0
        (Checkpoint.corrupt_lines reloaded);
      Helpers.check_bool "value round-trips" true
        (Checkpoint.find reloaded ~key:"a" = Some 2.0);
      Checkpoint.close reloaded;
      (* Legacy headerless files still load. *)
      let oc = open_out path in
      output_string oc "{\"key\": \"a\", \"hex\": \"0x1p+1\", \"value\": 2.0000}\n";
      close_out oc;
      let legacy = Checkpoint.create ~path in
      Helpers.check_int "headerless v1 accepted" 1 (Checkpoint.loaded legacy);
      Helpers.check_bool "legacy value parsed" true
        (Checkpoint.find legacy ~key:"a" = Some 2.0);
      Checkpoint.close legacy;
      (* A newer-schema header is a typed rejection, not a Failure and
         not silent corruption. *)
      let oc = open_out path in
      output_string oc "{\"ssj_checkpoint_schema\": 99}\n";
      output_string oc "{\"key\": \"a\", \"hex\": \"0x1p+1\", \"value\": 2.0000}\n";
      close_out oc;
      (match Checkpoint.create_result ~path with
      | Error (Checkpoint.Schema_newer { path = p; found; supported }) ->
        Helpers.check_bool "path reported" true (p = path);
        Helpers.check_int "found" 99 found;
        Helpers.check_int "supported" Checkpoint.schema_version supported
      | Ok _ -> Alcotest.fail "newer schema must be rejected");
      (match Checkpoint.create ~path with
      | exception Checkpoint.Rejected (Checkpoint.Schema_newer { found; _ })
        ->
        Helpers.check_int "create raises typed error" 99 found
      | _ -> Alcotest.fail "create must raise Rejected");
      (* Same-version header: accepted, records load. *)
      let oc = open_out path in
      Printf.fprintf oc "{\"ssj_checkpoint_schema\": %d}\n"
        Checkpoint.schema_version;
      output_string oc "{\"key\": \"a\", \"hex\": \"0x1p+1\", \"value\": 2.0000}\n";
      close_out oc;
      let same = Checkpoint.create ~path in
      Helpers.check_int "same-version header accepted" 1
        (Checkpoint.loaded same);
      Checkpoint.close same)

let test_supervision_from_env () =
  let sup = Runner.supervision_from_env () in
  (* In the test environment none of the variables are set. *)
  Helpers.check_int "default retries" 1 sup.Runner.retries;
  Helpers.check_bool "no default checkpoint" true
    (sup.Runner.checkpoint = None)

let test_supervision_from_env_rejects () =
  (* A typo in SSJ_RETRIES must fail loudly, naming the variable, not
     silently become the default. *)
  let saved = Sys.getenv_opt "SSJ_RETRIES" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "SSJ_RETRIES" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "SSJ_RETRIES" "abc";
      match Runner.supervision_from_env () with
      | _ -> Alcotest.fail "SSJ_RETRIES=abc must be rejected"
      | exception Invalid_argument msg ->
        Helpers.check_bool "message names the variable" true
          (String.length msg >= 11 && String.sub msg 0 11 = "SSJ_RETRIES"));
  let value v = Option.value v ~default:"" in
  Helpers.check_bool "environment restored" true
    (value (Sys.getenv_opt "SSJ_RETRIES") = value saved)

let suite =
  [
    Alcotest.test_case "Parallel.map: raising job propagates cleanly" `Quick
      test_map_raising_job;
    Alcotest.test_case "Parallel.try_map: per-slot capture, any job count"
      `Quick test_try_map_slots;
    Alcotest.test_case "run_supervised: retry then salvage" `Quick
      test_supervised_salvage;
    Alcotest.test_case "supervision invisible on clean sweeps" `Quick
      test_supervised_matches_plain;
    Alcotest.test_case "step budget aborts structurally" `Quick
      test_step_budget;
    Alcotest.test_case "checkpoint truncation + resume bit-identity" `Quick
      test_checkpoint_resume;
    Alcotest.test_case "checkpoint schema header + typed rejection" `Quick
      test_checkpoint_schema;
    Alcotest.test_case "supervision_from_env defaults" `Quick
      test_supervision_from_env;
    Alcotest.test_case "supervision_from_env rejects malformed SSJ_RETRIES"
      `Quick test_supervision_from_env_rejects;
  ]
