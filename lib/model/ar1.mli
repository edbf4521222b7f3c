(** AR(1) processes — Theorem 5 (φ₁ ≠ 1 case) and the REAL experiment.

    [X_t = phi0 + phi1·X_{t-1} + Y_t] with [Y ~ N(0, sigma²)].  Conditioned
    on [x_{t0}], the value at horizon [Δt] is normal with

    mean  [phi1^Δt · x_{t0} + phi0 · (1 − phi1^Δt)/(1 − phi1)]
    var   [sigma² · (1 − phi1^{2Δt})/(1 − phi1²)]

    discretised per unit bin.  Requires [0 < |phi1| < 1] (use
    {!Random_walk} for φ₁ = 1). *)

type params = { phi0 : float; phi1 : float; sigma : float }

val conditional_mean : params -> x0:float -> delta:int -> float
val conditional_stddev : params -> delta:int -> float

val stationary_mean : params -> float
val stationary_stddev : params -> float

val kernel : params -> Markov.kernel
(** The truncated Markov kernel of the caching DPs: the states from
    [round (mean − 6 sd)] to [round (mean + 6 sd)], for the stationary
    mean and standard deviation.  AR(1) is mean-reverting: from any
    start it is drawn back towards that mean, and its stationary law
    puts all but ~2e-9 of its mass inside this fixed window.  A random
    walk has no such centre, so its kernel is relative instead
    ({!Random_walk}). *)

val create : ?time:int -> start:int -> params -> Predictor.t
(** Its kernel for caching queries is {!kernel}. *)
