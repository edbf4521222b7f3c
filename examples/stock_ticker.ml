(* Stock ticker: join two random-walk price feeds.

   Run:  dune exec examples/stock_ticker.exe

   Scenario.  A pairs-trading monitor watches two co-listed instruments
   and emits an alert whenever a fresh quote on one venue matches a
   recently seen (tick-quantised) price on the other.  Prices follow
   random walks, so the streams wander: a cached quote's value is highest
   when it is *close to where the partner's walk currently is*, and decays
   with distance — the Section 5.5 scenario.

   HEEB's score here is the precomputed curve h1(v − x_partner) of
   Theorem 5 (phi1 = 1), queried in O(1) per candidate.  PROB, which
   ranks by historical frequency, keeps stale price levels alive long
   after the walks have moved away. *)

open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Ssj_engine

let step = Dist.discretized_normal ~sigma:1.0 ~bound:5

let feed () = Random_walk.create ~time:(-1) ~start:0 ~drift:0 ~step ()

let () =
  let capacity = 10 and length = 4000 and runs = 8 in
  let traces =
    Array.init runs (fun i ->
        Trace.generate ~r:(feed ()) ~s:(feed ()) ~rng:(Rng.create (900 + i))
          ~length)
  in
  (* Precompute the HEEB curve once: alpha = cache size, as in the
     paper's WALK experiments. *)
  let curve =
    Precompute.walk_joining_curve ~step ~drift:0
      ~l:(Lfun.exp_ ~alpha:(float_of_int capacity))
      ~lo:(-100) ~hi:100
  in
  let heeb () = Heeb.joining_curves ~h_r_tuples:curve ~h_s_tuples:curve () in
  let policies =
    [
      ("RAND", fun () -> Baselines.rand ~rng:(Rng.create 4) ());
      ("PROB", fun () -> Baselines.prob ());
      ("HEEB", heeb);
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
    "price-match alerts (mean over %d sessions of %d ticks, %d cached \
     quotes):@."
    runs length capacity;
  Table.print
    ~header:[ "policy"; "alerts"; "stddev" ]
    (List.map
       (fun s ->
         [
           s.Runner.label;
           Table.float_cell s.Runner.mean;
           Table.float_cell s.Runner.stddev;
         ])
       summaries);
  (* Peek at the curve itself: how fast does a quote's value decay with
     distance from the partner's current price? *)
  Format.printf "@.h1 curve (value of a cached quote at distance d):@.";
  List.iter
    (fun d ->
      Format.printf "  d=%3d  %.4f@." d
        (Interp.Curve.eval curve d))
    [ 0; 2; 5; 10; 20; 40 ]
