(** Model identification from observed series.

    The REAL experiment (Section 6.5) performs "a standard MLE procedure
    offline" to obtain an AR(1) model of the reference stream.  For
    Gaussian AR(1), the conditional maximum-likelihood estimates coincide
    with ordinary least squares of [x_t] on [x_{t-1}]; that is what we
    implement, together with a residual estimate of the noise standard
    deviation. *)

val ar1 : float array -> Ar1.params
(** Fit [X_t = phi0 + phi1·X_{t-1} + Y_t] by conditional MLE/OLS.  Raises
    [Invalid_argument] on fewer than 3 points or a constant series. *)

val ar1_of_ints : int array -> Ar1.params

type arp = {
  mean : float;
  coeffs : float array;  (** φ₁ … φ_p on the mean-centred series *)
  sigma : float;  (** innovation standard deviation *)
}

val yule_walker : float array -> order:int -> arp
(** AR(p) fit by the Yule–Walker equations, solved with Levinson–Durbin
    recursion (O(p²)).  Used to check that an AR(1) really is the right
    model order for the REAL reference stream: on AR(1) data the higher
    coefficients come out ≈ 0. *)

val aic : float array -> order:int -> float
(** Akaike information criterion of the Yule–Walker AR(p) fit,
    [n·ln(σ̂²) + 2·p] — lower is better; lets experiments report why
    order 1 was chosen. *)
