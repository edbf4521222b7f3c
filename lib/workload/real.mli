(** The REAL experiment's data — Section 6.5.

    The paper uses the StatSci.org Melbourne daily-temperature data set
    (10 years, 3650 readings) joined against a synthetic relation mapping
    each 0.1 °C temperature range to a projected energy-consumption level,
    and fits the AR(1) model [X_t = 0.72·X_{t−1} + 5.59 + Y_t],
    [Y ~ N(0, 4.22²)] by offline MLE.

    The data set is not available in this sealed environment, so we
    *simulate* it (DESIGN.md §5): [synthetic_ar1] draws directly from the
    paper's fitted model, so our own MLE ({!Ssj_model.Fit.ar1}) recovers
    φ₁ ≈ 0.72 and σ ≈ 4.22 and the series exhibits the same day-to-day
    locality that makes LRU/LFU competitive in Figure 13. *)

val paper_params : Ssj_model.Ar1.params
(** φ₀ = 5.59, φ₁ = 0.72, σ = 4.22 (°C). *)

val synthetic_ar1 :
  ?params:Ssj_model.Ar1.params ->
  rng:Ssj_prob.Rng.t ->
  days:int ->
  unit ->
  float array
(** Daily temperatures (°C) drawn from the AR(1) model, started at the
    stationary mean. *)

val to_bins : float array -> int array
(** 0.1 °C binning: the reference stream's integer join attribute
    ("every 0.1 degree Celsius"). *)

val bin_params : Ssj_model.Ar1.params -> Ssj_model.Ar1.params
(** Rescale AR(1) parameters from °C to 0.1 °C bins (φ₀ and σ scale by
    10, φ₁ is scale-free). *)
