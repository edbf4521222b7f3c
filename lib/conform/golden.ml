open Ssj_engine
open Ssj_workload

(* Golden digests: the tracked fig8 (capacity-25) and fig13 series,
   recomputed from scratch and compared against hex-float expectations
   bit-for-bit.  Any drift is then attributed to a *named* oracle pair
   by the rest of the registry — the digest says "something moved", the
   oracles say what. *)

type digest = { key : string; hex : string }

let hex v = Printf.sprintf "%h" v

(* The tracked sweep: TOWER traces seeded [42 + 1009 i], capacity 25
   (the saturating configuration: at 50 the cache outgrows TOWER's ~25
   live tuples and every policy ties), default warm-up, the trend lineup
   at seed 42, no OPT.  Canonical scale 50 x 5000. *)
let canonical_runs = 50
let canonical_length = 5000
let sweep_capacity = 25

let sweep_setup =
  {
    Runner.capacity = sweep_capacity;
    warmup = Runner.default_warmup ~capacity:sweep_capacity;
    window = None;
  }

let sweep_traces ~runs ~length =
  Experiments.traces
    (fun () -> Config.predictors (Config.tower ()))
    ~runs ~length ~seed:42

let sweep_lineup () = Factory.trend_policies (Config.tower ()) ~seed:42 ()

let fig8_key label field =
  Printf.sprintf "fig8/cap%d/%s/%s" sweep_capacity label field

let fig8_digests_of summaries =
  List.concat_map
    (fun s ->
      [
        { key = fig8_key s.Runner.label "mean"; hex = hex s.Runner.mean };
        { key = fig8_key s.Runner.label "stddev"; hex = hex s.Runner.stddev };
      ])
    summaries

let fig8_digests ~runs ~length () =
  fig8_digests_of
    (Runner.compare_joining ~setup:sweep_setup
       ~traces:(sweep_traces ~runs ~length)
       ~policies:(sweep_lineup ()) ~include_opt:false ())

let fig13_digests () =
  let data = Experiments.fig13_data Experiments.default in
  List.concat_map
    (fun (memory, summaries) ->
      List.map
        (fun s ->
          {
            key = Printf.sprintf "fig13/m%d/%s/mean" memory s.Runner.label;
            hex = hex s.Runner.mean;
          })
        summaries)
    data.Experiments.rows

(* Every entry of [Experiments.figures] at CI's smoke scale: the MD5 of
   the text it prints, under the key ["figures/<name>"].  The text is
   what `sjoin <name> --runs 2 --len 200 --fe-runs 1 --fe-len 60`
   prints, so `md5sum` of that output gives the same digest.  [jobs]
   sets [SSJ_JOBS] for the run and restores it after. *)
let figure_opts =
  {
    Experiments.default with
    Experiments.runs = 2;
    length = 200;
    fe_runs = 1;
    fe_length = 60;
  }

let figure_key (f : Experiments.figure) = "figures/" ^ f.Experiments.name

let with_jobs jobs run =
  let saved = Sys.getenv_opt "SSJ_JOBS" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SSJ_JOBS" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "SSJ_JOBS" (string_of_int jobs);
      run ())

let figure_digest ?jobs (f : Experiments.figure) =
  let text () =
    let buf = Buffer.create 4096 in
    let out = Format.formatter_of_buffer buf in
    f.Experiments.run figure_opts out;
    Format.pp_print_flush out ();
    Buffer.contents buf
  in
  let text = match jobs with None -> text () | Some j -> with_jobs j text in
  { key = figure_key f; hex = Digest.to_hex (Digest.string text) }

let figure_digests () = List.map figure_digest Experiments.figures

(* --- expected values -------------------------------------------------

   Regenerate with `sjoin check --print-golden` after an *intentional*
   numeric change; the 4-decimal roundings must keep matching the
   tracked BENCH_joining.json. *)

let expected_fig8 =
  [
    { key = "fig8/cap25/RAND/mean"; hex = "0x1.fc470a3d70a3dp+11" };
    { key = "fig8/cap25/RAND/stddev"; hex = "0x1.67d7db9e8cf2ap+5" };
    { key = "fig8/cap25/PROB/mean"; hex = "0x1.015e666666666p+12" };
    { key = "fig8/cap25/PROB/stddev"; hex = "0x1.71e5fca829bcap+5" };
    { key = "fig8/cap25/LIFE/mean"; hex = "0x1.015d70a3d70a4p+12" };
    { key = "fig8/cap25/LIFE/stddev"; hex = "0x1.71b542c8a6p+5" };
    { key = "fig8/cap25/HEEB/mean"; hex = "0x1.01b1eb851eb85p+12" };
    { key = "fig8/cap25/HEEB/stddev"; hex = "0x1.762164df4cadbp+5" };
  ]

let expected_fig13 =
  [
    { key = "fig13/m10/LFD/mean"; hex = "0x1.544p+11" };
    { key = "fig13/m10/RAND/mean"; hex = "0x1.ae8p+11" };
    { key = "fig13/m10/LRU/mean"; hex = "0x1.b08p+11" };
    { key = "fig13/m10/PROB(LFU)/mean"; hex = "0x1.ab6p+11" };
    { key = "fig13/m10/HEEB/mean"; hex = "0x1.aaep+11" };
    { key = "fig13/m25/LFD/mean"; hex = "0x1.104p+11" };
    { key = "fig13/m25/RAND/mean"; hex = "0x1.93ap+11" };
    { key = "fig13/m25/LRU/mean"; hex = "0x1.8f4p+11" };
    { key = "fig13/m25/PROB(LFU)/mean"; hex = "0x1.838p+11" };
    { key = "fig13/m25/HEEB/mean"; hex = "0x1.82cp+11" };
    { key = "fig13/m50/LFD/mean"; hex = "0x1.98cp+10" };
    { key = "fig13/m50/RAND/mean"; hex = "0x1.6p+11" };
    { key = "fig13/m50/LRU/mean"; hex = "0x1.62p+11" };
    { key = "fig13/m50/PROB(LFU)/mean"; hex = "0x1.476p+11" };
    { key = "fig13/m50/HEEB/mean"; hex = "0x1.3aep+11" };
    { key = "fig13/m100/LFD/mean"; hex = "0x1.f2p+9" };
    { key = "fig13/m100/RAND/mean"; hex = "0x1.096p+11" };
    { key = "fig13/m100/LRU/mean"; hex = "0x1.05p+11" };
    { key = "fig13/m100/PROB(LFU)/mean"; hex = "0x1.b98p+10" };
    { key = "fig13/m100/HEEB/mean"; hex = "0x1.89p+10" };
    { key = "fig13/m200/LFD/mean"; hex = "0x1.b7p+8" };
    { key = "fig13/m200/RAND/mean"; hex = "0x1.f28p+9" };
    { key = "fig13/m200/LRU/mean"; hex = "0x1.a4p+9" };
    { key = "fig13/m200/PROB(LFU)/mean"; hex = "0x1.3d8p+9" };
    { key = "fig13/m200/HEEB/mean"; hex = "0x1.18p+9" };
    { key = "fig13/m300/LFD/mean"; hex = "0x1.49p+8" };
    { key = "fig13/m300/RAND/mean"; hex = "0x1.81p+8" };
    { key = "fig13/m300/LRU/mean"; hex = "0x1.57p+8" };
    { key = "fig13/m300/PROB(LFU)/mean"; hex = "0x1.57p+8" };
    { key = "fig13/m300/HEEB/mean"; hex = "0x1.4fp+8" };
  ]

let expected_figures =
  [
    { key = "figures/example-3-4"; hex = "a2462b6b3d145bdfba870924605c7cc3" };
    { key = "figures/example-7"; hex = "fc1408a7b05129a8bfd3035510f1dbae" };
    { key = "figures/fig6"; hex = "1f0670a8bb2fa116eadd12562726f445" };
    { key = "figures/fig7"; hex = "2248ce140b67e111a749d19895426572" };
    { key = "figures/fig8"; hex = "32a1bd2fba6a001d1caa9462937de8dc" };
    { key = "figures/fig9"; hex = "3f96d00261cdced67c298d487fce0c4d" };
    { key = "figures/fig10"; hex = "b2ac25238556fb482ed249397e9169e4" };
    { key = "figures/fig11"; hex = "0deef5aad0719e50f876f8f1e0ba2729" };
    { key = "figures/fig12"; hex = "5dc63425cad8108b39a708f120b1db1b" };
    { key = "figures/fig13"; hex = "a8ef3d1bc9ce37cdced8d5780af4300c" };
    { key = "figures/fig14"; hex = "0edb336dce337fe7328e29feb22d205e" };
    { key = "figures/fig15"; hex = "b2d1b4b7ec0922b06d56b292e9b25780" };
    { key = "figures/fig17"; hex = "012366684c587dcb59baeffad7b92fa6" };
    { key = "figures/fig18"; hex = "d3b9590c6f62940e3944047f7794b7b6" };
    { key = "figures/fig19"; hex = "84c8adcd471c52a063295ed79ab94de6" };
    { key = "figures/window"; hex = "0fe879fd1ad13b46e46deb09f98d4f63" };
    { key = "figures/band"; hex = "d53f1ee66233f88e2f34b24448653141" };
    { key = "figures/multi"; hex = "15832720cbaac9a88db83bca7e0a7528" };
    { key = "figures/robustness"; hex = "99e3301b02060b33a902cf780a7f4d73" };
    { key = "figures/adversarial"; hex = "543484e97dd73eeeb6bad1348d44658a" };
    { key = "figures/ablation"; hex = "1cf8a1b6ecf5b5a8a066f3bd50d28d6c" };
  ]

let print_digests out digests =
  List.iter
    (fun d ->
      Format.fprintf out "    { key = %S; hex = %S };@." d.key d.hex)
    digests

(* --- comparison ------------------------------------------------------ *)

let compare_digests ~what ~expected actual =
  let drift e =
    match List.find_opt (fun a -> a.key = e.key) actual with
    | None -> Some (Printf.sprintf "%s: key %s not recomputed" what e.key)
    | Some a when a.hex <> e.hex ->
      Some
        (Printf.sprintf "%s: %s drifted — expected %s, got %s" what e.key
           e.hex a.hex)
    | Some _ -> None
  in
  let mismatch =
    if expected = [] then
      Some
        (Printf.sprintf
           "%s: no expected digests recorded (regenerate with `sjoin check \
            --print-golden`)"
           what)
    else
      match List.find_map drift expected with
      | None when List.length actual <> List.length expected ->
        Some
          (Printf.sprintf "%s: %d digests recomputed, %d expected" what
             (List.length actual) (List.length expected))
      | found -> found
  in
  match mismatch with
  | None ->
    Check.Pass
      { cases = List.length expected; note = "hex digests match bit-for-bit" }
  | Some detail -> Check.Fail { detail; case = None }

let fig8_drift summaries =
  List.find_map
    (fun got ->
      match List.find_opt (fun e -> e.key = got.key) expected_fig8 with
      | Some expected when expected.hex <> got.hex -> Some (expected, got)
      | Some _ | None -> None)
    (fig8_digests_of summaries)

(* --- artifact cross-check -------------------------------------------- *)

(* The tracked BENCH_joining.json rounds the sweep means to 4 decimals;
   the digest values must round to exactly those strings, tying the
   golden hex floats to the published artifact. *)
let artifact_means ~filename =
  let module Json = Ssj_obs.Json in
  let entry p =
    match (Json.member "name" p, Json.member "mean" p) with
    | Some (Json.String name), Some mean ->
      Option.map (fun mean -> (name, mean)) (Json.as_float mean)
    | _ -> None
  in
  match Json.of_file filename with
  | Error msg -> Error msg
  | Ok json -> (
    match Option.bind (Json.member "sweep" json) (Json.member "policies") with
    | Some (Json.Array (_ :: _ as policies)) ->
      let means = List.filter_map entry policies in
      if List.length means = List.length policies then Ok means
      else Error "sweep.policies entry without a name and a numeric mean"
    | _ -> Error "no sweep.policies to cross-check")

let check_artifact ~filename digests =
  let mismatch (name, mean) =
    let key = fig8_key name "mean" in
    match List.find_opt (fun d -> d.key = key) digests with
    | None -> Some (Printf.sprintf "artifact policy %s has no digest" name)
    | Some d ->
      let v = float_of_string d.hex in
      if Printf.sprintf "%.4f" v = Printf.sprintf "%.4f" mean then None
      else
        Some
          (Printf.sprintf "artifact %s mean %.4f <> digest %s (%.4f)" name
             mean d.hex v)
  in
  match artifact_means ~filename with
  | Error msg ->
    Check.Fail { detail = Printf.sprintf "%s: %s" filename msg; case = None }
  | Ok means -> (
    match List.find_map mismatch means with
    | None ->
      Check.Pass
        {
          cases = List.length means;
          note = "artifact 4-decimal means match the digests";
        }
    | Some detail -> Check.Fail { detail; case = None })

(* --- registered checks ----------------------------------------------- *)

let fig8_check ?artifact () =
  Check.make ~name:"golden:fig8-cap25-sweep" ~kind:Check.Golden
    ~fast:"tracked fig8 sweep recomputed (TOWER, 50x5000, capacity 25)"
    ~reference:"recorded hex-float digests (and BENCH_joining.json roundings)"
    (fun ~seed:_ ~count:_ ->
      let digests =
        fig8_digests ~runs:canonical_runs ~length:canonical_length ()
      in
      match
        compare_digests ~what:"fig8" ~expected:expected_fig8 digests
      with
      | Check.Fail _ as f -> f
      | Check.Pass _ as p -> (
        match artifact with
        | None -> p
        | Some filename -> (
          match check_artifact ~filename digests with
          | Check.Pass { cases; _ } ->
            Check.Pass
              {
                cases = List.length expected_fig8 + cases;
                note = "digests and artifact roundings match";
              }
          | Check.Fail _ as f -> f)))

let fig13_check () =
  Check.make ~name:"golden:fig13-real-series" ~kind:Check.Golden
    ~fast:"tracked fig13 series recomputed (REAL, 3650 days, 6 memory sizes)"
    ~reference:"recorded hex-float digests"
    (fun ~seed:_ ~count:_ ->
      compare_digests ~what:"fig13" ~expected:expected_fig13
        (fig13_digests ()))

let figure_check (f : Experiments.figure) =
  let key = figure_key f in
  Check.make ~name:("golden:" ^ key) ~kind:Check.Golden
    ~fast:
      (Printf.sprintf
         "sjoin %s at 2x200 (FlowExpect 1x60), SSJ_JOBS=1 and SSJ_JOBS=2"
         f.Experiments.name)
    ~reference:"recorded MD5 of the printed text"
    (fun ~seed:_ ~count:_ ->
      let expected = List.filter (fun d -> d.key = key) expected_figures in
      let at jobs =
        compare_digests
          ~what:(Printf.sprintf "%s at SSJ_JOBS=%d" key jobs)
          ~expected
          [ figure_digest ~jobs f ]
      in
      match (at 1, at 2) with
      | Check.Pass _, Check.Pass _ ->
        Check.Pass
          { cases = 2; note = "text MD5 matches at SSJ_JOBS=1 and 2" }
      | (Check.Fail _ as f), _ | _, (Check.Fail _ as f) -> f)

let checks ?artifact () =
  fig8_check ?artifact () :: fig13_check ()
  :: List.map figure_check Experiments.figures
