(** Precomputed HEEB functions — Theorem 5 and Sections 4.4.3 / 6.5.

    For processes of the form [X_t = φ0 + φ1·X_{t−1} + Y_t] the HEEB score
    is a time-independent function: a curve [h1(v_x − x_{t0})] when
    [φ1 = 1] (random walk with drift) and a surface [h2(v_x, x_{t0})] for
    AR(1).  These are computed offline and queried in O(1) at run time.

    Caching variants need first-*reference* probabilities; we obtain whole
    columns of the [h2] surface in a single backward first-passage DP:
    with [u_d(x) = Pr{first visit of target v at step d | X_0 = x}],

      [u_1 = K(v | ·)],  [u_{d+1} = K · (u_d masked at v)],

    so one DP per target value yields [H(v, x0)] for *every* start [x0]
    (and for every [L] simultaneously, since [u_d] does not depend on
    [L]).  Random-walk kernels are shift-invariant, so a single DP with
    target 0 yields the whole [h1] curve. *)

val walk_joining_curve :
  step:Ssj_prob.Pmf.t -> drift:int -> l:Lfun.t -> lo:int -> hi:int -> Interp.Curve.t
(** Joining problem, partner stream a random walk:
    [h1(d) = Σ_Δ q_Δ(d − drift·Δ) · L(Δ)] where [q_Δ] is the Δ-fold step
    convolution and [d = v_x − x^partner_{t0}].  Sampled on integers
    [lo..hi].

    Builds [q_Δ] as one rolling level, [q_Δ = q_{Δ−1} ⋆ step], with the
    exact-zero tails trimmed after each level: O(horizon · nonzero
    support) time and O(support) memory — no table of levels is kept.
    Every level equals {!Ssj_prob.Convolve.Table.get}'s bit for bit
    (the trimmed cells are exact zeros), for any step and any [L]. *)

val walk_joining_h :
  step:Ssj_prob.Pmf.t -> drift:int -> l:Lfun.t -> d:int -> float
(** Exact single-point evaluation of the {!walk_joining_curve} sum at
    integer offset [d], computed through naive pairwise convolutions
    and per-delta point lookups — no zero trimming, no compensated
    renormalisation, no banded accumulation.  The conformance
    suite's independent reference for the [h1] fast path; agreement is
    up to summation order (compare with a small tolerance, not
    bit-for-bit). *)

val caching_columns :
  kernel:Ssj_model.Markov.kernel ->
  target:int ->
  ls:Lfun.t array ->
  ?horizon:int ->
  ?stop_eps:float ->
  unit ->
  float array array
(** Backward first-passage DP described above.  [result.(j).(x − lo)] is
    the caching [H] of a database tuple with value [target] when the last
    observed reference is [x], under [ls.(j)].  [horizon] caps the DP
    (default 4096); [stop_eps] (default 1e-9) stops once the largest
    per-step contribution becomes negligible.  Equivalent to a
    single-target {!caching_columns_batch}. *)

val caching_columns_batch :
  kernel:Ssj_model.Markov.kernel ->
  targets:int array ->
  ls:Lfun.t array ->
  ?horizon:int ->
  ?stop_eps:float ->
  unit ->
  float array array array
(** The same DP run for several targets at once over one shared dense
    kernel ({!Ssj_model.Markov.Dense}): each kernel row is loaded once
    per step and serves every still-active target, and the inner banded
    dot products run through the {!Dp_kernel} C sweep, in one fixed
    summation order.  [result.(t)] equals
    [caching_columns ~target:targets.(t) ...] bit for bit — per-target
    arithmetic, early stopping and out-of-window handling do not depend
    on the batch composition. *)

val walk_caching_curve :
  step:Ssj_prob.Pmf.t ->
  drift:int ->
  l:Lfun.t ->
  lo:int ->
  hi:int ->
  ?horizon:int ->
  unit ->
  Interp.Curve.t
(** Caching problem, reference stream a random walk:
    [h1(d)] over [d = v_x − x_{t0} ∈ \[lo, hi\]] — the curves of Figure 6.
    One backward DP; the kernel window is sized automatically from the
    drift, step spread and horizon. *)

val ar1_joining_h : Ssj_model.Ar1.params -> l:Lfun.t -> vx:int -> x0:int -> float
(** Joining problem against an AR(1) partner: closed-form conditional
    marginals make [h2(v_x, x0)] a direct sum — no DP needed. *)

val ar1_caching_surface :
  Ssj_model.Ar1.params ->
  l:Lfun.t ->
  vx_lo:int ->
  vx_hi:int ->
  x0_lo:int ->
  x0_hi:int ->
  nv:int ->
  nx:int ->
  ?horizon:int ->
  unit ->
  Interp.Surface.t
(** The REAL experiment's [h2] surface on an [nv × nx] control grid
    (the paper uses 5×5 = 25 control points), bicubic-interpolated by
    {!Interp.Surface.eval}.  One backward DP per distinct control [v_x]. *)

val ar1_caching_exact :
  Ssj_model.Ar1.params -> l:Lfun.t -> ?horizon:int -> vx:int -> x0:int -> unit -> float
(** Exact surface value (single backward DP, then a lookup) — used to
    measure the approximation error of Figures 15/16. *)

val ar1_caching_surfaces :
  Ssj_model.Ar1.params ->
  ls:Lfun.t array ->
  vx_lo:int ->
  vx_hi:int ->
  x0_lo:int ->
  x0_hi:int ->
  nv:int ->
  nx:int ->
  ?horizon:int ->
  ?jobs:int ->
  unit ->
  Interp.Surface.t array
(** Bulk variant: one surface per [L], sharing the per-target DPs (the
    backward pass is independent of [L], so a whole α sweep costs the same
    as a single surface).  Used by the Figure 13 memory-size sweep.
    Distinct control targets are deduped and split into one
    {!caching_columns_batch} per worker ([jobs], default
    [Ssj_prob.Parallel.default_jobs ()], i.e. [SSJ_JOBS]); the result is
    bit-identical for any job count. *)

val ar1_kernel : Ssj_model.Ar1.params -> Ssj_model.Markov.kernel
(** The truncated Markov kernel used by the caching DPs (stationary mean
    ± 6 stationary standard deviations); exposed so experiments can reuse
    {!caching_columns} directly for exact-surface evaluation. *)
