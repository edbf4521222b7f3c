(** Baseline joining heuristics: RAND, PROB and LIFE — as implemented for
    the paper's experiments (Sections 6.2–6.3).

    PROB and LIFE come from Das et al. \[8\].  Following Section 6.2, all
    three can be made *window-aware*: when a [lifetime] estimator is
    supplied, tuples whose remaining lifetime is ≤ 0 (they can no longer
    join anything) are always discarded first.

    PROB estimates a tuple's join probability "in a simplistic manner"
    from history: the observed frequency of its value in the partner
    stream so far.  LIFE weighs that estimate by the tuple's remaining
    lifetime. *)

type lifetime =
  | Trend of { r_add : int; s_add : int; speed : int }
      (** Linear-trend streams: remaining = (value + add_side)/speed − now
          (see {!Ssj_workload.Config.lifetime} for the constants). *)
  | Of_window of Ssj_stream.Window.t
      (** Sliding window: {!Ssj_stream.Window.remaining_lifetime}. *)
(** Remaining number of steps during which a tuple can still produce
    results (e.g. until the partner's noise window has moved past it).
    The first-order constructors let the policies' per-candidate death
    test compile to an integer compare instead of a closure call. *)

val rand : rng:Ssj_prob.Rng.t -> ?lifetime:lifetime -> unit -> Policy.join
(** Discard uniformly at random (among live tuples first). *)

val prob : ?lifetime:lifetime -> unit -> Policy.join
(** Discard the tuple whose value has been least frequent in the partner
    stream's history. *)

val life : lifetime:lifetime -> unit -> Policy.join
(** Discard the tuple with the smallest (estimated join probability ×
    remaining lifetime) product. *)

val prob_model : partner_prob:(Ssj_stream.Tuple.t -> float) -> unit -> Policy.join
(** PROB with *true* model probabilities instead of history estimates —
    the provably-optimal policy for stationary independent streams
    (Section 5.2); used by tests and the stationary case study. *)
