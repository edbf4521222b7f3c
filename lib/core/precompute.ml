open Ssj_prob
open Ssj_model

let walk_joining_curve ~step ~drift ~l ~lo ~hi =
  if lo > hi then invalid_arg "Precompute.walk_joining_curve: lo > hi";
  let horizon = l.Lfun.horizon in
  if horizon >= max_int / 8 then
    invalid_arg "Precompute.walk_joining_curve: L has no finite horizon";
  let n = hi - lo + 1 in
  let h = Array.make n 0.0 in
  (* One rolling level q = Δ-fold step convolution, built from level
     Δ−1 and the step exactly as [Convolve.Table] builds a sequential
     scan, so every level has the same bits as the table's.  Only the
     current level is ever read again, so no table is kept.  Both tails
     underflow to exact zeros after a few dozen steps; trimming them
     drops cells that could only add +0.0 to the next level (the naive
     kernel skips zero entries of its left operand) and to [h]. *)
  let q = ref step in
  for delta = 1 to horizon do
    if delta > 1 then begin
      let next = Convolve.pair !q step in
      assert (Float.abs (Pmf.total next -. 1.0) < 1e-9);
      q := Pmf.trim_zeros next
    end;
    let w = l.Lfun.l delta in
    if w > 0.0 then
      (* h.(i) += w·Pr{Σ steps = (lo + i) − drift·delta}: one banded
         accumulation over the support overlap, no per-cell lookups. *)
      Pmf.add_into !q ~dst:h ~lo:(lo - (drift * delta)) ~scale:w
  done;
  Interp.Curve.create ~x0:(float_of_int lo) ~dx:1.0 h

(* Exact single-point h1 evaluation, kept deliberately independent of
   the curve path above: untrimmed naive pairwise convolutions with
   plain renormalisation and a per-delta point lookup instead
   of the banded accumulation.  O(horizon · support²) — the conformance
   suite's oracle, not a production path. *)
let walk_joining_h ~step ~drift ~l ~d =
  let horizon = l.Lfun.horizon in
  if horizon >= max_int / 8 then
    invalid_arg "Precompute.walk_joining_h: L has no finite horizon";
  let acc = ref 0.0 in
  let q = ref (Pmf.point 0) in
  for delta = 1 to horizon do
    q := Convolve.pair_naive !q step;
    let w = l.Lfun.l delta in
    if w > 0.0 then acc := !acc +. (w *. Pmf.prob !q (d - (drift * delta)))
  done;
  !acc

let caching_columns_batch ~kernel ~targets ~ls ?(horizon = 4096)
    ?(stop_eps = 1e-9) () =
  let dk = Markov.Dense.of_kernel kernel in
  let n = dk.Markov.Dense.n and w = dk.Markov.Dense.w in
  let rows = dk.Markov.Dense.rows and slot = dk.Markov.Dense.slot in
  let nt = Array.length targets in
  let nl = Array.length ls in
  let horizon =
    Array.fold_left (fun acc l -> max acc l.Lfun.horizon) 0 ls |> min horizon
  in
  let h = Array.init nt (fun _ -> Array.init nl (fun _ -> Array.make n 0.0)) in
  (* Weight tables hoisted out of the DP: wtab.(j).(d) = L_j(d) and its
     per-step max, evaluated once instead of per target per step. *)
  let wtab =
    Array.map
      (fun l ->
        Array.init (horizon + 2) (fun d -> if d = 0 then 0.0 else l.Lfun.l d))
      ls
  in
  let maxw =
    Array.init (horizon + 2) (fun d ->
        Array.fold_left (fun acc t -> max acc t.(d)) 0.0 wtab)
  in
  (* Per-target DP state, flattened so the C sweep sees one base pointer:
     u.(t·n + x) = Pr{first visit of targets.(t) at current step | start x}. *)
  let u = Array.make (nt * n) 0.0 in
  let masked = Array.make (nt * n) 0.0 in
  let active = Array.make (max nt 1) 0 in
  let nact = ref 0 in
  for t = 0 to nt - 1 do
    let target = targets.(t) in
    if target >= kernel.Markov.lo && target <= kernel.Markov.hi then begin
      (* d = 1: one-step hit probability. *)
      let ti = target - dk.Markov.Dense.lo in
      let off = t * n in
      for x = 0 to n - 1 do
        let j = ti - slot.(x) in
        if j >= 0 && j < w then u.(off + x) <- rows.((x * w) + j)
      done;
      active.(!nact) <- t;
      incr nact
    end
    (* Out-of-window targets keep their all-zero columns, as before. *)
  done;
  let d = ref 1 in
  while !nact > 0 && !d <= horizon do
    (* Accumulate this step's contribution for every L, per target. *)
    for a = 0 to !nact - 1 do
      let t = active.(a) in
      let off = t * n in
      for j = 0 to nl - 1 do
        let wj = wtab.(j).(!d) in
        if wj > 0.0 then begin
          let hj = h.(t).(j) in
          for x = 0 to n - 1 do
            Array.unsafe_set hj x
              (Array.unsafe_get hj x +. (Array.unsafe_get u (off + x) *. wj))
          done
        end
      done
    done;
    (* Per-target stop test (identical to the single-target rule: the
       largest remaining per-step contribution is dust), then build the
       masked vector for the survivors.  Retiring a target swap-removes
       it from [active]; per-target arithmetic is independent of batch
       composition and order, so results match single-target runs. *)
    let a = ref 0 in
    while !a < !nact do
      let t = active.(!a) in
      let off = t * n in
      let sup = ref 0.0 in
      for x = 0 to n - 1 do
        let ux = Array.unsafe_get u (off + x) in
        if ux > !sup then sup := ux
      done;
      if !sup *. maxw.(!d + 1) < stop_eps || !sup = 0.0 then begin
        active.(!a) <- active.(!nact - 1);
        decr nact
      end
      else begin
        Array.blit u off masked off n;
        masked.(off + (targets.(t) - dk.Markov.Dense.lo)) <- 0.0;
        incr a
      end
    done;
    if !nact > 0 then begin
      Dp_kernel.sweep ~rows ~w ~n ~slot ~masked ~u ~active ~nact:!nact;
      incr d
    end
  done;
  h

let caching_columns ~kernel ~target ~ls ?horizon ?stop_eps () =
  (caching_columns_batch ~kernel ~targets:[| target |] ~ls ?horizon ?stop_eps ()).(0)

let walk_caching_curve ~step ~drift ~l ~lo ~hi ?(horizon = 4096) () =
  if lo > hi then invalid_arg "Precompute.walk_caching_curve: lo > hi";
  let horizon = min horizon l.Lfun.horizon in
  (* Shift-invariant kernel: run one DP with target 0; h1(d) for
     d = v_x − x0 is the column entry at start x0 = −d.  Window sizing:
     excursions reach |drift|·horizon + a few step deviations; clip to a
     sane bound since far-away states contribute nothing. *)
  let spread = Pmf.hi step - Pmf.lo step in
  let excursion =
    (abs drift * horizon) + (spread * int_of_float (Float.ceil (sqrt (float_of_int horizon)))) + spread
  in
  let excursion = min excursion 4000 in
  let win_lo = min lo (-hi) - excursion and win_hi = max hi (-lo) + excursion in
  let kernel = Markov.of_step ~step ~drift ~lo:win_lo ~hi:win_hi in
  let columns = caching_columns ~kernel ~target:0 ~ls:[| l |] ~horizon () in
  let col = columns.(0) in
  (* h1(d) = H(target 0 | start −d). *)
  let n = hi - lo + 1 in
  let h = Array.init n (fun i -> col.(-(lo + i) - win_lo)) in
  Interp.Curve.create ~x0:(float_of_int lo) ~dx:1.0 h

let ar1_joining_h params ~l ~vx ~x0 =
  let horizon = l.Lfun.horizon in
  if horizon >= max_int / 8 then
    invalid_arg "Precompute.ar1_joining_h: L has no finite horizon";
  let acc = ref 0.0 in
  for delta = 1 to min horizon 100_000 do
    let w = l.Lfun.l delta in
    if w > 0.0 then begin
      let mu = Ar1.conditional_mean params ~x0:(float_of_int x0) ~delta in
      let sd = Ar1.conditional_stddev params ~delta in
      let p =
        Special.normal_cdf ~mu ~sigma:sd (float_of_int vx +. 0.5)
        -. Special.normal_cdf ~mu ~sigma:sd (float_of_int vx -. 0.5)
      in
      acc := !acc +. (p *. w)
    end
  done;
  !acc

let ar1_kernel params =
  let mean = Ar1.stationary_mean params in
  let sd = Ar1.stationary_stddev params in
  let lo = int_of_float (Float.round (mean -. (6.0 *. sd))) in
  let hi = int_of_float (Float.round (mean +. (6.0 *. sd))) in
  Markov.of_ar1 ~phi0:params.Ar1.phi0 ~phi1:params.Ar1.phi1
    ~sigma:params.Ar1.sigma ~lo ~hi

let ar1_caching_exact params ~l ?(horizon = 2048) ~vx ~x0 () =
  let kernel = ar1_kernel params in
  let columns = caching_columns ~kernel ~target:vx ~ls:[| l |] ~horizon () in
  let x0 = max kernel.Markov.lo (min kernel.Markov.hi x0) in
  columns.(0).(x0 - kernel.Markov.lo)

let ar1_caching_surfaces params ~ls ~vx_lo ~vx_hi ~x0_lo ~x0_hi ~nv ~nx
    ?(horizon = 2048) ?jobs () =
  if nv < 2 || nx < 2 then invalid_arg "Precompute.ar1_caching_surfaces: grid < 2";
  let kernel = ar1_kernel params in
  let nl = Array.length ls in
  let dv = float_of_int (vx_hi - vx_lo) /. float_of_int (nv - 1) in
  let dx = float_of_int (x0_hi - x0_lo) /. float_of_int (nx - 1) in
  let vxs =
    Array.init nv (fun i ->
        int_of_float (Float.round (float_of_int vx_lo +. (float_of_int i *. dv))))
  in
  (* Dedupe control targets (coarse grids can round two controls onto the
     same integer), then split them into one batch per worker.  Each
     batch shares a single dense kernel and row sweep across its
     targets; per-target results are independent of batch composition,
     so the surface is bit-identical for any [jobs]. *)
  let distinct = ref [] in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun vx ->
      if not (Hashtbl.mem seen vx) then begin
        Hashtbl.add seen vx ();
        distinct := vx :: !distinct
      end)
    vxs;
  let distinct = Array.of_list (List.rev !distinct) in
  let nd = Array.length distinct in
  let jobs =
    max 1 (min (match jobs with Some j -> j | None -> Parallel.default_jobs ()) nd)
  in
  let chunks =
    Array.init jobs (fun c ->
        (* Contiguous split: chunk c gets [c·nd/jobs, (c+1)·nd/jobs). *)
        let lo = c * nd / jobs and hi = (c + 1) * nd / jobs in
        Array.sub distinct lo (hi - lo))
  in
  let chunk_columns =
    Parallel.map ~jobs
      (fun targets -> caching_columns_batch ~kernel ~targets ~ls ~horizon ())
      chunks
  in
  let columns_of = Hashtbl.create 16 in
  Array.iteri
    (fun c targets ->
      Array.iteri (fun t vx -> Hashtbl.replace columns_of vx chunk_columns.(c).(t)) targets)
    chunks;
  (* values.(j).(i).(k): L index j, control vx index i, control x0 index k. *)
  let values = Array.init nl (fun _ -> Array.make_matrix nv nx 0.0) in
  for i = 0 to nv - 1 do
    let columns = Hashtbl.find columns_of vxs.(i) in
    for j = 0 to nl - 1 do
      for k = 0 to nx - 1 do
        let x0 =
          int_of_float
            (Float.round (float_of_int x0_lo +. (float_of_int k *. dx)))
        in
        let x0 = max kernel.Markov.lo (min kernel.Markov.hi x0) in
        values.(j).(i).(k) <- columns.(j).(x0 - kernel.Markov.lo)
      done
    done
  done;
  Array.map
    (fun grid ->
      Interp.Surface.create ~x0:(float_of_int vx_lo) ~dx:dv
        ~y0:(float_of_int x0_lo) ~dy:dx grid)
    values

let ar1_caching_surface params ~l ~vx_lo ~vx_hi ~x0_lo ~x0_hi ~nv ~nx
    ?horizon () =
  (ar1_caching_surfaces params ~ls:[| l |] ~vx_lo ~vx_hi ~x0_lo ~x0_hi ~nv ~nx
     ?horizon ()).(0)
