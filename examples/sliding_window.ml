(* Sliding-window join: Section 7 in action.

   Run:  dune exec examples/sliding_window.exe

   Scenario.  A clickstream joiner correlates ad impressions with clicks
   on campaign id within a sliding window (only recent tuples may join).
   Campaign popularity is heavily skewed and stationary.  PROB is
   short-sighted (hoards popular-but-expiring tuples), LIFE is
   pessimistic (hoards long-lived junk); the windowed HEEB instance —
   L_exp forced to zero at window exit — balances both.

   The example first prints the paper's x1/x2/x3 score table, then runs a
   full windowed simulation. *)

open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Ssj_engine

let width = 30
let window = Window.create ~width

(* Skewed stationary campaign popularity: p(i) ~ 1/i. *)
let popularity =
  Pmf.of_assoc (List.init 50 (fun i -> (i + 1, 1.0 /. float_of_int (i + 1))))

let model () = Stationary.create ~time:(-1) popularity

let () =
  (* The paper's worked example. *)
  Format.printf
    "Section 7 example (alpha = 10): PROB prefers x1, LIFE prefers x3,@.";
  Format.printf "windowed HEEB ranks x2 > x1 > x3:@.";
  List.iter
    (fun (name, p, life) ->
      Format.printf
        "  %s: p=%.2f life=%2d  PROB=%.2f  LIFE=%5.2f  HEEB-W=%.3f@." name p
        life
        (Sliding.prob_score ~p ~remaining_lifetime:life)
        (Sliding.life_score ~p ~remaining_lifetime:life)
        (Sliding.stationary_score ~alpha:10.0 ~p ~remaining_lifetime:life))
    [ ("x1", 0.50, 1); ("x2", 0.49, 50); ("x3", 0.01, 51) ];

  (* Full simulation under sliding-window semantics. *)
  let runs = 10 and length = 4000 and capacity = 12 in
  let traces =
    Array.init runs (fun i ->
        Trace.generate ~r:(model ()) ~s:(model ()) ~rng:(Rng.create (40 + i))
          ~length)
  in
  let lifetime = Baselines.Of_window window in
  let policies =
    [
      ("RAND", fun () -> Baselines.rand ~rng:(Rng.create 6) ~lifetime ());
      ("PROB", fun () -> Baselines.prob ~lifetime ());
      ("LIFE", fun () -> Baselines.life ~lifetime ());
      ( "HEEB-W",
        fun () ->
          (* alpha from the paper's lifetime-matching rule: a cached tuple
             survives roughly capacity/2 steps here (two arrivals compete
             for a slot each step), well short of the window width. *)
          let residence = Float.min (float_of_int width) (float_of_int capacity /. 2.0) in
          Sliding.heeb ~r:(model ()) ~s:(model ())
            ~alpha:(Lfun.alpha_for_lifetime (Float.max 1.5 residence))
            ~window () );
    ]
  in
  let summaries =
    Runner.compare_joining
      ~setup:
        {
          Runner.capacity;
          warmup = Runner.default_warmup ~capacity;
          window = Some window;
        }
      ~traces ~policies ~include_opt:false ()
  in
  Format.printf
    "@.impression-click matches (window %d, cache %d, mean over %d runs):@."
    width capacity runs;
  Table.print
    ~header:[ "policy"; "matches"; "stddev" ]
    (List.map
       (fun s ->
         [
           s.Runner.label;
           Table.float_cell s.Runner.mean;
           Table.float_cell s.Runner.stddev;
         ])
       summaries)
