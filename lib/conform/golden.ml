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

let checks ?artifact () = [ fig8_check ?artifact (); fig13_check () ]
