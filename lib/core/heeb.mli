(** HEEB — the paper's Heuristic of Estimated Expected Benefit
    (Section 4.3) as executable replacement policies.

    Every variant scores each candidate tuple with
    [H_x = Σ_{Δt≥1} pr_x(Δt)·L(Δt)] and keeps the [capacity] candidates
    with the highest scores.  The variants differ only in how [H] is
    computed, one way per model:

    - [`Direct]: truncated summation each step (reference implementation;
      also the adaptive, window and band variants);
    - [`Memo_trend speed]: for linear trends [f(t) = speed·t + b], the
      value-incremental observation of Corollary 5: [H] depends only on
      the offset [v_x − speed·t0], so scores are memoised by offset and
      each distinct offset is computed once per run;
    - lookups of {!Precompute}'s functions (Theorem 5): the random-walk
      curve, a table on integer offsets ({!Interp.Curve}), and the AR(1)
      surface.

    The time-incremental updates of Corollaries 3–4 are
    {!Hvalue.step_joining_exp} and {!Hvalue.step_caching_exp}; no policy
    runs them.

    The joining variants are {!Policy.scored} policies: each is one
    scoring kernel over the step's candidates.

    Predictors passed to the constructors must be positioned *before* the
    first simulated arrival (their [time] is [now − 1] when the policy
    first steps at [now]); the policy observes every arrival itself. *)

type mode = [ `Direct | `Memo_trend of int  (** trend speed *) ]

(** The two streams' predictors, advanced by every arrival: the state
    of each directly scored joining HEEB (this module's, {!Band.heeb},
    {!Sliding.heeb}). *)
module Tracker : sig
  type t

  val create : r:Ssj_model.Predictor.t -> s:Ssj_model.Predictor.t -> t

  val observe : t -> r:Ssj_stream.Tuple.t -> s:Ssj_stream.Tuple.t -> unit
  (** Advance the predictor of each tuple's side by its value, [r]
      first: the [observe] hook of {!Policy.scored}. *)

  val partner : t -> int -> Ssj_model.Predictor.t
  (** [partner t bit] is the predictor a candidate with uid side bit
      [bit] joins: S's for an R tuple (bit 0), R's for an S tuple. *)
end

val joining :
  ?name:string ->
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  l:Lfun.t ->
  ?mode:mode ->
  unit ->
  Policy.join
(** HEEB for the joining problem. *)

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
  unit ->
  Policy.cache
(** HEEB for the caching problem, scored directly: the first-passage
    sum {!Hvalue.caching_markov} when the reference carries a Markov
    [kernel], else {!Hvalue.caching_independent}.  On a [Relative]
    kernel (random walk) [H(v)] is the first passage from offset 0 to
    [v − last] (last = 0 before any reference), and an offset that
    overflows scores 0.  On an [Absolute] kernel (AR(1)) the passage
    starts from the last reference clamped into the kernel's window
    (its midpoint before any).

    As a set, the cache is the [capacity] best candidates (the cache,
    plus the fetched value on a miss) by [H], ties to the larger value.
    A hit or a miss with room keeps every candidate and scores nothing.
    A full miss re-scores every slot and the fetched value, then drops
    {!Policy.drop_argmin}[ Smaller_value]'s victim. *)

type fill =
  now:int -> last:int -> n:int -> values:int array -> scores:float array -> unit
(** A precomputed-H scoring kernel: fill [scores.(0 .. n-1)] with the H
    of the database tuples [values.(0 .. n-1)] when the most recent
    reference was [last].  One call per full miss, so the loop over
    candidates runs without a closure call or float boxing per
    candidate. *)

val caching_kernel : ?name:string -> fill -> Policy.cache
(** Precomputed-H caching: only a full miss scores, by the argmin rule
    of {!caching}, with one [fill] call over the [capacity + 1]
    candidates (the slots, then the fetched value), [last] being the
    reference just made.  HEEB(h2) fills from a y-slice of the bicubic
    surface re-contracted in place ({!Interp.Surface.fill_slice}). *)

val caching_fn :
  ?name:string -> h:(now:int -> last:int -> int -> float) -> unit -> Policy.cache
(** {!caching_kernel} with a generic scorer: [h ~now ~last] stages the
    scorer once per full miss, and [h ~now ~last value] scores each of
    the [capacity + 1] candidates once; a hit or a miss with room calls
    nothing.  Used with {!Precompute.walk_caching_curve}
    ([h = curve(value − last)]). *)
