open Ssj_prob
open Ssj_model
open Ssj_core
open Helpers

let coin = Pmf.of_assoc [ (-1, 0.5); (1, 0.5) ]

let test_walk_joining_curve_matches_direct () =
  let l = Lfun.exp_ ~alpha:5.0 in
  let curve =
    Precompute.walk_joining_curve ~step:coin ~drift:0 ~l ~lo:(-10) ~hi:10
  in
  (* Direct H for a tuple at offset d from the partner's position. *)
  List.iter
    (fun d ->
      let partner = Random_walk.create ~start:0 ~drift:0 ~step:coin () in
      let direct = Hvalue.joining ~partner ~l ~value:d in
      check_float ~eps:1e-9
        (Printf.sprintf "h1(%d)" d)
        direct
        (Interp.Curve.eval curve (float_of_int d)))
    [ -6; -3; 0; 1; 4; 9 ]

let test_walk_joining_curve_symmetric_zero_drift () =
  let l = Lfun.exp_ ~alpha:8.0 in
  let curve =
    Precompute.walk_joining_curve ~step:coin ~drift:0 ~l ~lo:(-15) ~hi:15
  in
  for d = 0 to 15 do
    check_float ~eps:1e-12
      (Printf.sprintf "symmetry at %d" d)
      (Interp.Curve.eval curve (float_of_int d))
      (Interp.Curve.eval curve (float_of_int (-d)))
  done

(* The h1 curve of the walk workloads' step on [-100, 100], keyed by the
   %h digest of its samples.  The keys were taken from the build over a
   [Convolve.Table] of every level; the rolling, zero-trimmed build must
   reproduce them bit for bit. *)
let normal_step = Dist.discretized_normal ~sigma:1.0 ~bound:5

let h1_curve ~alpha ~drift =
  Precompute.walk_joining_curve ~step:normal_step ~drift
    ~l:(Lfun.exp_ ~alpha) ~lo:(-100) ~hi:100

let floats_digest xs =
  List.map (Printf.sprintf "%h;") xs
  |> String.concat "" |> Digest.string |> Digest.to_hex

let curve_digest curve =
  floats_digest (Array.to_list (Interp.Curve.samples curve))

let test_walk_joining_curve_bits_pinned () =
  List.iter
    (fun (alpha, drift, key) ->
      Alcotest.(check string)
        (Printf.sprintf "alpha %g drift %d" alpha drift)
        key
        (curve_digest (h1_curve ~alpha ~drift)))
    [
      (100.0, 0, "cb860a037cc8df79045acaefaf5e08e2");
      (25.0, 0, "01a6a854050e4aff0d67c0e83c7a777a");
      (25.0, 2, "0ed07465ac0a1d789563384d1f4efc07");
    ]

let test_walk_joining_curve_allocation () =
  (* Allocation is exact for a build, so this gate has no timing noise.
     The rolling build allocates ~2.3 M words for alpha 25 (horizon 771);
     the table of every level allocated ~69 M. *)
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  ignore (Sys.opaque_identity (h1_curve ~alpha:25.0 ~drift:0));
  let words = allocated () -. before in
  if words > 8e6 then
    Alcotest.failf "alpha 25 curve allocated %.3g words (gate 8e6)" words

let test_walk_joining_curve_levels_match_table () =
  (* An L that weighs only level k, by 1, turns the curve into that
     level sampled over its whole support [-5k, 5k].  Levels 1..k-1 get
     weight 0 but are still rolled, and must match the table's. *)
  let table = Convolve.Table.create normal_step in
  List.iter
    (fun k ->
      let l =
        { Lfun.name = "level"; l = (fun d -> if d = k then 1.0 else 0.0);
          horizon = k }
      in
      let lo = -5 * k in
      let samples =
        Interp.Curve.samples
          (Precompute.walk_joining_curve ~step:normal_step ~drift:0 ~l ~lo
             ~hi:(5 * k))
      in
      let level = Convolve.Table.get table k in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x
             <> Int64.bits_of_float (Pmf.prob level (lo + i))
          then Alcotest.failf "level %d differs at %d" k (lo + i))
        samples)
    [ 1; 2; 7; 64; 365 ]

let test_walk_caching_curve_matches_hvalue () =
  let l = Lfun.exp_ ~alpha:6.0 in
  let curve =
    Precompute.walk_caching_curve ~step:coin ~drift:0 ~l ~lo:(-8) ~hi:8 ()
  in
  List.iter
    (fun d ->
      let kernel = Markov.of_step ~step:coin ~drift:0 ~lo:(-300) ~hi:300 in
      let direct = Hvalue.caching_markov ~kernel ~start:0 ~l ~value:d in
      check_float ~eps:1e-6
        (Printf.sprintf "caching h1(%d)" d)
        direct
        (Interp.Curve.eval curve (float_of_int d)))
    [ -5; -2; 0; 1; 3; 7 ]

let test_walk_caching_zero_drift_ranks_by_distance () =
  (* Section 5.5: zero drift + symmetric unimodal steps -> H decreases
     with |v_x - x_t0| (possibly with parity wiggles for the ±1 coin, so
     use a step with a 0 component). *)
  let step = Pmf.of_assoc [ (-1, 0.25); (0, 0.5); (1, 0.25) ] in
  let l = Lfun.exp_ ~alpha:10.0 in
  let curve =
    Precompute.walk_caching_curve ~step ~drift:0 ~l ~lo:0 ~hi:12 ()
  in
  for d = 1 to 12 do
    check_bool
      (Printf.sprintf "h(%d) <= h(%d)" d (d - 1))
      true
      (Interp.Curve.eval curve (float_of_int d)
      <= Interp.Curve.eval curve (float_of_int (d - 1)) +. 1e-12)
  done

let test_walk_caching_drift_shifts_preference () =
  (* Figure 6: positive drift makes tuples to the right more valuable. *)
  let step = Dist.discretized_normal ~sigma:1.0 ~bound:5 in
  let l = Lfun.exp_ ~alpha:10.0 in
  let with_drift drift =
    Precompute.walk_caching_curve ~step ~drift ~l ~lo:(-20) ~hi:20 ()
  in
  let c0 = with_drift 0 and c4 = with_drift 4 in
  check_bool "drift 0 symmetric-ish" true
    (Float.abs
       (Interp.Curve.eval c0 5.0 -. Interp.Curve.eval c0 (-5.0))
    < 1e-6);
  check_bool "drift 4 prefers +8 to -8" true
    (Interp.Curve.eval c4 8.0 > Interp.Curve.eval c4 (-8.0))

let ar1_params = { Ar1.phi0 = 2.0; phi1 = 0.6; sigma = 2.0 }

let test_ar1_joining_h_matches_predictor_sum () =
  let l = Lfun.exp_ ~alpha:5.0 in
  let x0 = 7 in
  let vx = 5 in
  let h = Precompute.ar1_joining_h ar1_params ~l ~vx ~x0 in
  (* Direct sum through the predictor's discretised pmfs. *)
  let pred = Ar1.create ~start:x0 ar1_params in
  let direct = Hvalue.joining ~partner:pred ~l ~value:vx in
  check_float ~eps:1e-4 "joining h2" direct h

let test_ar1_caching_exact_vs_hvalue () =
  let l = Lfun.exp_ ~alpha:5.0 in
  let vx = 5 and x0 = 7 in
  let exact = Precompute.ar1_caching_exact ar1_params ~l ~vx ~x0 () in
  let kernel = Precompute.ar1_kernel ar1_params in
  let direct = Hvalue.caching_markov ~kernel ~start:x0 ~l ~value:vx in
  check_float ~eps:1e-6 "caching h2" direct exact

let test_ar1_surface_interpolates_exact_at_controls () =
  let l = Lfun.exp_ ~alpha:5.0 in
  let surface =
    Precompute.ar1_caching_surface ar1_params ~l ~vx_lo:(-2) ~vx_hi:10
      ~x0_lo:(-2) ~x0_hi:10 ~nv:4 ~nx:4 ()
  in
  (* Control spacing 4: nodes at -2, 2, 6, 10. *)
  List.iter
    (fun (vx, x0) ->
      let exact = Precompute.ar1_caching_exact ar1_params ~l ~vx ~x0 () in
      check_float ~eps:1e-9
        (Printf.sprintf "control (%d,%d)" vx x0)
        exact
        (Interp.Surface.eval surface (float_of_int vx) (float_of_int x0)))
    [ (-2, -2); (2, 6); (6, 2); (10, 10) ]

let test_ar1_surfaces_bulk_matches_single () =
  let l1 = Lfun.exp_ ~alpha:4.0 and l2 = Lfun.exp_ ~alpha:9.0 in
  let bulk =
    Precompute.ar1_caching_surfaces ar1_params ~ls:[| l1; l2 |] ~vx_lo:0
      ~vx_hi:8 ~x0_lo:0 ~x0_hi:8 ~nv:3 ~nx:3 ()
  in
  let single =
    Precompute.ar1_caching_surface ar1_params ~l:l2 ~vx_lo:0 ~vx_hi:8 ~x0_lo:0
      ~x0_hi:8 ~nv:3 ~nx:3 ()
  in
  List.iter
    (fun (x, y) ->
      check_float ~eps:1e-12 "bulk = single"
        (Interp.Surface.eval single x y)
        (Interp.Surface.eval bulk.(1) x y))
    [ (0.0, 0.0); (3.3, 5.5); (8.0, 8.0) ]

let test_caching_columns_multiple_ls_consistent () =
  let kernel = Markov.of_step ~step:coin ~drift:0 ~lo:(-50) ~hi:50 in
  let l1 = Lfun.exp_ ~alpha:3.0 and l2 = Lfun.exp_ ~alpha:10.0 in
  let both = Precompute.caching_columns ~kernel ~target:2 ~ls:[| l1; l2 |] () in
  let only1 = Precompute.caching_columns ~kernel ~target:2 ~ls:[| l1 |] () in
  (* Batching with a longer-horizon L extends the DP, adding only tail
     dust to the short-horizon column. *)
  Array.iteri
    (fun i v ->
      check_float ~eps:1e-7 "column for l1 unchanged by batching" v
        both.(0).(i))
    only1.(0);
  (* Larger alpha keeps tuples longer: H can only grow. *)
  Array.iteri
    (fun i h1 -> check_bool "alpha monotone" true (both.(1).(i) >= h1 -. 1e-12))
    both.(0)

let test_batch_bit_identical_to_single () =
  (* The batched DP (shared dense kernel, C sweep, early per-target
     stopping) must reproduce single-target runs bit for bit, whatever
     the batch composition. *)
  let kernel = Precompute.ar1_kernel ar1_params in
  let ls = [| Lfun.exp_ ~alpha:3.0; Lfun.exp_ ~alpha:12.0 |] in
  let targets = [| 2; 7; 4; 11 |] in
  let batched =
    Precompute.caching_columns_batch ~kernel ~targets ~ls ~horizon:512 ()
  in
  Array.iteri
    (fun t target ->
      let single =
        Precompute.caching_columns ~kernel ~target ~ls ~horizon:512 ()
      in
      check_bool
        (Printf.sprintf "target %d bit-identical" target)
        true
        (batched.(t) = single))
    targets;
  (* And against a differently-composed batch containing the same target. *)
  let other =
    Precompute.caching_columns_batch ~kernel ~targets:[| 7 |] ~ls ~horizon:512
      ()
  in
  check_bool "batch composition irrelevant" true (batched.(1) = other.(0))

let test_surfaces_bit_identical_across_jobs () =
  (* SSJ_JOBS must never change results: the per-worker chunks only
     regroup targets into batches, and batches are composition-invariant
     (previous test), so any job count yields byte-identical surfaces. *)
  let ls = [| Lfun.exp_ ~alpha:4.0; Lfun.exp_ ~alpha:9.0 |] in
  let build jobs =
    Precompute.ar1_caching_surfaces ar1_params ~ls ~vx_lo:0 ~vx_hi:8 ~x0_lo:0
      ~x0_hi:8 ~nv:3 ~nx:3 ~horizon:256 ~jobs ()
  in
  let s1 = build 1 and s4 = build 4 in
  check_bool "jobs=1 = jobs=4 (structural equality on the float grids)" true
    (s1 = s4)

(* The REAL experiment's DP (Figure 13): the paper's AR(1) fit in 0.1 °C
   bins, five control targets spread over [real_surface_bounds] as a
   fig13 surface spreads them, L_exp alpha 25.
   The key was recorded on x86-64 glibc: the kernel rows come from libm,
   so another libm may round them differently.  The reference test below
   pins the dot product's order on any host and libm. *)
let test_real_columns_bits_pinned () =
  let params = Ssj_workload.Real.bin_params Ssj_workload.Real.paper_params in
  let kernel = Precompute.ar1_kernel params in
  let lo, hi = Ssj_workload.Factory.real_surface_bounds params in
  let dv = float_of_int (hi - lo) /. 4.0 in
  let targets =
    Array.init 5 (fun i ->
        int_of_float (Float.round (float_of_int lo +. (float_of_int i *. dv))))
  in
  let columns =
    Precompute.caching_columns_batch ~kernel ~targets
      ~ls:[| Lfun.exp_ ~alpha:25.0 |] ()
  in
  Alcotest.(check string)
    "REAL columns digest" "878cc46998987cdf035affa6ab3decd7"
    (floats_digest
       (List.concat_map
          (fun per_l -> List.concat_map Array.to_list (Array.to_list per_l))
          (Array.to_list columns)))

(* The C sweep's dot product in OCaml, in the same order: 16 lanes over
   the 16-wide blocks, the fixed pairwise tree over the lanes, then the
   tail one product at a time. *)
let dot_16_lanes a ao b bo w =
  let s = Array.make 16 0.0 in
  let blocks = w / 16 in
  for blk = 0 to blocks - 1 do
    for i = 0 to 15 do
      let j = (16 * blk) + i in
      s.(i) <- s.(i) +. (a.(ao + j) *. b.(bo + j))
    done
  done;
  let pair i = s.(i) +. s.(i + 1) in
  let quad i = pair i +. pair (i + 2) in
  let oct i = quad i +. quad (i + 4) in
  let acc = ref (oct 0 +. oct 8) in
  for j = 16 * blocks to w - 1 do
    acc := !acc +. (a.(ao + j) *. b.(bo + j))
  done;
  !acc

let test_sweep_matches_reference_order () =
  let rng = rng 20 in
  (* Entries over several binades (and some exact zeros, as in padded
     rows), so any other association of the sum shows in the bits. *)
  let entry () =
    if Rng.int rng 8 = 0 then 0.0
    else Float.ldexp (Rng.float rng 1.0) (-Rng.int rng 12)
  in
  let nt = 6 in
  List.iter
    (fun w ->
      for _ = 1 to 4 do
        let n = w + Rng.int rng 24 in
        let rows = Array.init (n * w) (fun _ -> entry ()) in
        let slot = Array.init n (fun _ -> Rng.int rng (n - w + 1)) in
        let masked = Array.init (nt * n) (fun _ -> entry ()) in
        let u = Array.init (nt * n) (fun _ -> entry ()) in
        let before = Array.copy u in
        let order = Array.init nt Fun.id in
        Rng.shuffle rng order;
        let nact = 1 + Rng.int rng 5 in
        let active = Array.sub order 0 nact in
        Dp_kernel.sweep ~rows ~w ~n ~slot ~masked ~u ~active ~nact;
        for t = 0 to nt - 1 do
          for x = 0 to n - 1 do
            let expected =
              if Array.mem t active then
                dot_16_lanes rows (x * w) masked ((t * n) + slot.(x)) w
              else before.((t * n) + x)
            in
            if
              Int64.bits_of_float expected
              <> Int64.bits_of_float u.((t * n) + x)
            then
              Alcotest.failf "w %d n %d target %d x %d: sweep %h, reference %h"
                w n t x u.((t * n) + x) expected
          done
        done
      done)
    [ 1; 15; 16; 17; 33; 431 ]

let suite =
  [
    Alcotest.test_case "walk joining curve vs direct" `Quick
      test_walk_joining_curve_matches_direct;
    Alcotest.test_case "walk joining symmetry" `Quick
      test_walk_joining_curve_symmetric_zero_drift;
    Alcotest.test_case "walk caching curve vs direct" `Quick
      test_walk_caching_curve_matches_hvalue;
    Alcotest.test_case "Section 5.5 distance ranking" `Quick
      test_walk_caching_zero_drift_ranks_by_distance;
    Alcotest.test_case "Figure 6 drift preference" `Quick
      test_walk_caching_drift_shifts_preference;
    Alcotest.test_case "ar1 joining h2" `Quick
      test_ar1_joining_h_matches_predictor_sum;
    Alcotest.test_case "ar1 caching exact vs hvalue" `Quick
      test_ar1_caching_exact_vs_hvalue;
    Alcotest.test_case "ar1 surface exact at controls" `Slow
      test_ar1_surface_interpolates_exact_at_controls;
    Alcotest.test_case "bulk surfaces consistent" `Slow
      test_ar1_surfaces_bulk_matches_single;
    Alcotest.test_case "caching columns batching" `Quick
      test_caching_columns_multiple_ls_consistent;
    Alcotest.test_case "batch DP bit-identical to single" `Quick
      test_batch_bit_identical_to_single;
    Alcotest.test_case "surfaces bit-identical across jobs" `Slow
      test_surfaces_bit_identical_across_jobs;
    Alcotest.test_case "walk joining curve bits pinned" `Quick
      test_walk_joining_curve_bits_pinned;
    Alcotest.test_case "walk joining curve allocation" `Quick
      test_walk_joining_curve_allocation;
    Alcotest.test_case "walk joining curve levels = table" `Quick
      test_walk_joining_curve_levels_match_table;
    Alcotest.test_case "REAL DP columns bits pinned" `Quick
      test_real_columns_bits_pinned;
    Alcotest.test_case "DP sweep = 16-lane reference order" `Quick
      test_sweep_matches_reference_order;
  ]
