(** Seeded counterexample shrinker.

    Minimises a failing (trace, capacity, policy) case under a "still
    failing" predicate: ddmin-style paired-chunk removal on the time
    axis (both streams lose the same steps, preserving the
    one-R-one-S-per-step shape), parameter shrinking (capacity, band,
    window), and value-domain shrinking (zero individual entries, halve
    the domain).  Deterministic given the predicate; bounded by an
    explicit evaluation/wall-clock budget so a slow predicate cannot
    stall a conformance run. *)

type budget = { max_evals : int; max_seconds : float }

val default_budget : budget
(** 4000 evaluations / 10 s. *)

type stats = {
  evals : int;  (** predicate evaluations spent *)
  seconds : float;
  from_steps : int;  (** trace length before *)
  to_steps : int;  (** trace length after *)
}

val minimize : still_fails:(Case.t -> bool) -> Case.t -> Case.t * stats
(** [minimize ~still_fails case] runs within {!default_budget} and
    requires [still_fails case = true] for
    a useful result (a passing case is returned unchanged).  The result
    always satisfies [still_fails] — every accepted transformation
    re-established it. *)
