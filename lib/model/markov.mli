(** Discretised Markov transition kernels and the first-passage dynamic
    program.

    The caching problem's ECB/HEEB for dependent processes (random walk,
    AR(1)) needs *first-reference* probabilities
    [Pr{X_{t0+Δt} = v ∧ X_t ≠ v for t0 < t < t0+Δt | x_{t0}}]
    (Corollary 1, Sections 5.4–5.5).  For a Markov process that is a
    first-passage ("taboo") probability, computed by propagating the state
    distribution with the target state's mass removed at each step.

    State spaces are truncated to a finite window [\[lo, hi\]]; probability
    mass stepping outside the window is dropped, which under-counts
    arbitrarily-late returns.  Callers choose windows wide enough that the
    dropped mass is negligible over the horizon they query (the HEEB
    [L_exp] weighting makes far horizons vanish anyway). *)

type kernel = {
  lo : int;
  hi : int;  (** inclusive truncation window for states *)
  row : int -> Ssj_prob.Pmf.t;
      (** [row x] is the conditional law of [X_{t+1}] given [X_t = x];
          only queried for [x] within the window *)
}

val of_step : step:Ssj_prob.Pmf.t -> drift:int -> lo:int -> hi:int -> kernel
(** Random-walk kernel: [X_{t+1} = X_t + drift + step]. *)

val of_ar1 : phi0:float -> phi1:float -> sigma:float -> lo:int -> hi:int -> kernel
(** AR(1) kernel: [X_{t+1} = phi0 + phi1·X_t + N(0, sigma²)], discretised
    per unit bin. *)

module Dense : sig
  (** Dense banded form of a kernel: the window's rows clipped, packed
      into one flat matrix of uniform width and zero-padded.  Built once
      and reused for every DP step — the [row] closure (which for AR(1)
      discretises a fresh normal per call) is queried exactly [n] times
      instead of once per state per step.  This is the layout consumed
      by the C sweep of {!Ssj_core.Precompute.caching_columns_batch}. *)

  type t = {
    lo : int;  (** window lower bound, as in the source kernel *)
    n : int;  (** window size *)
    w : int;  (** uniform row width (widest clipped support) *)
    rows : float array;
        (** [n·w] flat matrix; [rows.(i·w + j)] = Pr{[lo + slot.(i) + j]
            | current state [lo + i]}, zero where padded *)
    slot : int array;
        (** per-row band anchor, always within [\[0, n − w\]] so a band
            never leaves the window *)
  }

  val of_kernel : kernel -> t
end

val first_passage :
  Dense.t -> start:int -> target:int -> horizon:int -> float array
(** [first_passage k ~start ~target ~horizon] returns [a] with [a.(d-1)] =
    Pr{first visit of [target] happens at step [d]}, for [d = 1..horizon].
    Requires [start] within the window.  It takes the dense form so a
    caller scoring many targets on one kernel builds it once; each step
    sweeps only the states the chain has reached, so a query costs the
    chain's reach over [horizon], not the window's width. *)

val marginal : kernel -> start:int -> horizon:int -> float array array
(** [marginal k ~start ~horizon] returns [m] where [m.(d-1).(j)] =
    Pr{X_{t0+d} = lo + j} for [d = 1..horizon].  The vectors are
    *sub-probability* measures: mass stepping outside the window is lost,
    not renormalised (callers pick windows so the loss is negligible).
    Used for tests against closed forms and truncation-error reporting. *)
