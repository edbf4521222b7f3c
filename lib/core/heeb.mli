(** HEEB — the paper's Heuristic of Estimated Expected Benefit
    (Section 4.3) as executable replacement policies.

    Every variant scores each candidate tuple with
    [H_x = Σ_{Δt≥1} pr_x(Δt)·L(Δt)] and keeps the [capacity] candidates
    with the highest scores.  The variants differ only in how [H] is
    computed:

    - [`Direct]: truncated summation each step (reference implementation);
    - [`Incremental]: Corollaries 3–4 time-incremental updates for
      independent processes with [L_exp] — O(1) per cached tuple per step,
      with periodic direct refresh to stop float drift;
    - [`Memo_trend speed]: for linear trends [f(t) = speed·t + b], combine
      the time- and value-incremental observations (Corollary 5): [H]
      depends only on the offset [v_x − speed·t0], so scores are memoised
      by offset and each distinct offset is computed once per run;
    - lookups of {!Precompute}'s functions: the random-walk curve, a
      table on integer offsets ({!Interp.Curve}), and the AR(1) surface.

    The joining variants are {!Policy.scored} policies: each is one
    scoring kernel over the step's candidates.

    Predictors passed to the constructors must be positioned *before* the
    first simulated arrival (their [time] is [now − 1] when the policy
    first steps at [now]); the policy observes every arrival itself. *)

type mode =
  [ `Direct
  | `Incremental of incr_config
  | `Memo_trend of int  (** trend speed *) ]

and incr_config = { alpha : float; refresh_every : int }

val joining :
  ?name:string ->
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  l:Lfun.t ->
  ?mode:mode ->
  unit ->
  Policy.join
(** HEEB for the joining problem.  [`Incremental] silently degrades to
    [`Direct] when either process is not independent. *)

val joining_curves :
  ?name:string ->
  h_r_tuples:Interp.Curve.t ->
  h_s_tuples:Interp.Curve.t ->
  unit ->
  Policy.join
(** HEEB with precomputed random-walk curves ({!Precompute.walk_joining_curve}):
    an R tuple scores [h_r_tuples(v − x^S_last)], an S tuple scores
    [h_s_tuples(v − x^R_last)] — Theorem 5 (φ₁ = 1, joining).  The
    offsets are integers and each score is {!Interp.Curve.eval} at the
    offset, read from the curve's samples inside the scoring loop. *)

val joining_adaptive :
  ?name:string ->
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  unit ->
  Policy.join
(** The adaptive-α variant the paper leaves as future work (Section 5.3):
    observe the realised residence time of evicted tuples with an
    exponential moving average (weight 0.05), and keep [α] matched to it
    through {!Lfun.alpha_for_lifetime}.  A lifetime of 5 steps seeds the
    estimate before any eviction has been seen.  Scores are computed
    directly (memoisation would be invalidated by the moving α). *)

val caching :
  ?name:string ->
  reference:Ssj_model.Predictor.t ->
  l:Lfun.t ->
  ?mode:mode ->
  unit ->
  Policy.cache
(** HEEB for the caching problem ([`Memo_trend] is not applicable here and
    degrades to [`Direct]).  A cache hit restarts the hit entry's
    first-reference clock (its [H] is recomputed directly).

    Selection keeps, as a set, the [capacity] best candidates (the fetched
    value on a miss, then the cache) by [H], ties to the larger value.  A
    hit or a miss with room keeps every candidate; a full miss drops the
    one argmin — smallest [H] under [Float.compare], ties to the smaller
    value — found in one pass.  [`Direct] scores only on full misses;
    [`Incremental] rescores every candidate on every reference, since its
    Corollary 4 recurrence and refresh clock advance per reference. *)

val caching_fn :
  ?name:string -> h:(now:int -> last:int -> int -> float) -> unit -> Policy.cache
(** Generic precomputed-H caching policy: [h ~now ~last] stages the scorer
    for one reference, and [h ~now ~last value] scores a database tuple
    [value] when the most recent reference was [last].  Only a full miss
    scores, by the argmin rule of {!caching}: it applies [h ~now ~last]
    once, then the scorer to each of the [capacity + 1] candidates once;
    a hit or a miss with room calls nothing.  Used with
    {!Precompute.walk_caching_curve} ([h = curve(value − last)]) and with
    the bicubic {!Precompute.ar1_caching_surface}
    ([h = surface(value, last)], staged as {!Interp.Surface.y_slice} at
    [last], the REAL experiment). *)
