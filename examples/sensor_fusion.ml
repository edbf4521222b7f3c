(* Sensor fusion: correlate two scanning sensors under memory pressure.

   Run:  dune exec examples/sensor_fusion.exe

   Scenario.  Two instruments sweep the same physical gradient (say, a
   spectrometer line scan): both report quantised positions that increase
   over time, but instrument B trails A by a couple of ticks and is
   noisier.  A stream processor joins their readings on position to pair
   up measurements, with room for only a handful of readings in memory.

   This is exactly the paper's "linear trend with bounded noise" joining
   problem (Section 5.4): the right replacement policy must reason about
   *where the partner's sweep window will be*, not about historical value
   frequencies — which is why PROB and LIFE fall behind HEEB here. *)

open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Ssj_engine

let lag = 2
let sigma_a = 1.5
let sigma_b = 3.0

let model_a () =
  Linear_trend.linear ~time:(-1) ~speed:1 ~offset:0
    ~noise:(Dist.discretized_normal ~sigma:sigma_a ~bound:8)
    ()

let model_b () =
  Linear_trend.linear ~time:(-1) ~speed:1 ~offset:(-lag)
    ~noise:(Dist.discretized_normal ~sigma:sigma_b ~bound:12)
    ()

(* Remaining steps before the partner sweep passes a reading. *)
let lifetime =
  Baselines.Trend { r_add = 12 + lag (* joins B's window *); s_add = 8 (* joins A's window *); speed = 1 }

let () =
  let runs = 10 and length = 3000 and capacity = 8 in
  let traces =
    Array.init runs (fun i ->
        Trace.generate ~r:(model_a ()) ~s:(model_b ())
          ~rng:(Rng.create (500 + i)) ~length)
  in
  let alpha = Lfun.alpha_for_lifetime (sigma_a +. sigma_b) in
  let policies =
    [
      ("RAND", fun () -> Baselines.rand ~rng:(Rng.create 3) ~lifetime ());
      ("PROB", fun () -> Baselines.prob ~lifetime ());
      ("LIFE", fun () -> Baselines.life ~lifetime ());
      ( "HEEB",
        fun () ->
          Heeb.joining ~r:(model_a ()) ~s:(model_b ())
            ~l:(Lfun.exp_ ~alpha) ~mode:(`Memo_trend 1) () );
    ]
  in
  let summaries =
    Runner.compare_joining
      ~setup:
        {
          Runner.capacity;
          warmup = Runner.default_warmup ~capacity;
          window = None;
        }
      ~traces ~policies ()
  in
  Format.printf
    "paired sensor readings (mean over %d sweeps of %d ticks, %d-slot \
     buffer):@."
    runs length capacity;
  Table.print
    ~header:[ "policy"; "paired readings"; "stddev" ]
    (List.map
       (fun s ->
         [
           s.Runner.label;
           Table.float_cell s.Runner.mean;
           Table.float_cell s.Runner.stddev;
         ])
       summaries);
  (* How HEEB splits the buffer between the leading and trailing sensor. *)
  let share =
    (Join_sim.run ~trace:traces.(0)
       ~policy:
         (Heeb.joining ~r:(model_a ()) ~s:(model_b ()) ~l:(Lfun.exp_ ~alpha)
            ~mode:(`Memo_trend 1) ())
       ~capacity ~record_share:500 ())
      .Join_sim.share_samples
  in
  Format.printf
    "@.fraction of the buffer holding sensor-A readings over time@.";
  Format.printf
    "(A leads, so its readings are worth less — they miss B's window):@.";
  List.iter (fun (t, f) -> Format.printf "  t=%4d  %.2f@." t f) share
