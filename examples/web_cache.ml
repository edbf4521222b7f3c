(* Energy dashboard cache: the paper's REAL caching scenario.

   Run:  dune exec examples/web_cache.exe

   Scenario.  A dashboard joins a daily temperature feed against a
   database relation mapping each 0.1 °C range to a projected
   energy-consumption level (the paper's REAL experiment).  Every lookup
   either hits the in-memory cache of database rows or fetches from the
   database; we want to minimise fetches.

   Temperatures are strongly autocorrelated (AR(1)), so classic LRU/LFU
   already do well — but HEEB, reading a precomputed bicubic h2 surface
   built from the *fitted* AR(1) model, does better, because it knows
   that rows far from today's temperature in the direction the process
   mean-reverts away from are unlikely to be needed soon. *)

open Ssj_prob
open Ssj_model
open Ssj_core
open Ssj_engine
open Ssj_workload

let () =
  (* Ten years of synthetic Melbourne-like temperatures, 0.1 °C bins. *)
  let reference =
    Real.to_bins (Real.synthetic_ar1 ~rng:(Rng.create 2024) ~days:3650 ())
  in
  (* Identify the model exactly as the paper does: offline MLE. *)
  let fitted = Fit.ar1_of_ints reference in
  Format.printf
    "fitted AR(1) on the reference stream (0.1C bins): x_t = %.3f x_(t-1) \
     + %.2f + N(0, %.2f^2)@."
    fitted.Ar1.phi1 fitted.Ar1.phi0 fitted.Ar1.sigma;
  let capacity = 100 in
  let policies =
    ("LFD (offline optimum)", fun () -> Classic.lfd ~reference)
    :: [
         ("RAND", fun () -> Classic.rand_cache ~rng:(Rng.create 5));
         ("LRU", fun () -> Classic.lru ());
         ("LFU", fun () -> Classic.lfu ());
         ("LRU-2", fun () -> Classic.lruk ~k:2);
         ("HEEB(h2)", Factory.real_heeb ~params:fitted ~capacity);
       ]
  in
  Format.printf "@.database fetches over %d days, %d cached rows:@."
    (Array.length reference) capacity;
  let rows =
    List.map
      (fun (label, make) ->
        let policy = make () in
        let result =
          Cache_sim.run ~reference ~policy ~capacity ()
        in
        [
          label;
          string_of_int result.Cache_sim.misses;
          Printf.sprintf "%.1f%%"
            (100.0
            *. float_of_int result.Cache_sim.hits
            /. float_of_int (Array.length reference));
        ])
      policies
  in
  Table.print ~header:[ "policy"; "fetches"; "hit rate" ] rows
