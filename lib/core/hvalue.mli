(** Direct and incremental computation of the HEEB score
    [H_x = Σ_{Δt≥1} pr_x(Δt) · L(Δt)] — Sections 4.3–4.4.

    [pr_x(Δt)] is the probability that [x] produces a result exactly at
    time [t0 + Δt]: the partner-match probability for the joining problem
    (Lemma 1 applied to the definition of [H]) and the first-reference
    probability for the caching problem (Corollary 1 applied likewise). *)

val joining : partner:Ssj_model.Predictor.t -> l:Lfun.t -> value:int -> float
(** [H_x = Σ_Δ Pr{X^partner_{t0+Δ} = v_x | hist} · L(Δ)].  Requires an [L]
    with a finite horizon ([L_exp], [L_fixed], windowed) — the sum diverges
    for [L_inf]/[L_inv] on the joining problem, as the paper notes. *)

val caching_independent :
  reference:Ssj_model.Predictor.t -> l:Lfun.t -> value:int -> float
(** [H_x = Σ_Δ Pr{X_{t0+Δ} = v ∧ no earlier reference} · L(Δ)] for an
    independent reference process, where the first-reference probability
    factors as [p_Δ(v) · Π_{j<Δ}(1 − p_j(v))].  Converges for every
    admissible [L] including [L_inf]; the sum early-exits once the
    survival probability is negligible. *)

val caching_markov :
  kernel:Ssj_model.Markov.Dense.t -> start:int -> l:Lfun.t -> value:int -> float
(** Same, with first-reference probabilities from the Markov first-passage
    DP on the kernel's dense form (built once by the caller).  Expensive
    per call — policies use {!Precompute} instead; this
    entry point is the reference implementation they are tested against. *)

(** {2 Time-incremental updates (Section 4.4.1)} *)

val step_joining_exp : alpha:float -> h_prev:float -> p_now:float -> float
(** Corollary 3: [H_{x,t0} = e^{1/α}·H_{x,t0−1} − Pr{X^partner_{t0} = v_x}],
    valid when the partner process is independent across time.  [p_now]
    must be the *prior* probability (predictor state before observing the
    arrival at [t0]). *)

val step_caching_exp : alpha:float -> h_prev:float -> p_now:float -> float
(** Corollary 4:
    [H_{x,t0} = (e^{1/α}·H_{x,t0−1} − Pr{X_{t0} = v_x}) / (1 − Pr{X_{t0} = v_x})]. *)

(** {2 Value-incremental transfer (Section 4.4.2)} *)

val value_shift : speed:int -> value:int -> reference_value:int -> int
(** Corollary 5 bookkeeping for linear trends [f(t) = speed·t + b]: a tuple
    with value [v] at time [t0] has the same [H] as a tuple with value
    [v'] at time [t0 + (v' − v)/speed].  [value_shift] returns that time
    offset [(reference_value − value) / speed]; raises [Invalid_argument]
    unless [speed] divides the value difference. *)
