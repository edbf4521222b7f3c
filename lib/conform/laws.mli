(** Metamorphic laws over traces — relations between two engine runs on
    related inputs, needing no reference implementation:

    - [law:value-relabel-shift] — RAND/PROB (and window-aware LIFE)
      join counts are invariant under a common shift of every value.
    - [law:time-shift-causality] — the full run's total splits exactly
      at any cut: prefix-run total + warm-up-discounted tail.
    - [law:opt-capacity-monotone] — the offline optimum is
      nondecreasing in the cache size.
    - [law:fault-zero-severity-identity] — a zero-severity fault spec
      leaves the trace value-identical and the simulation bit-identical.
    - [law:window-unbounded-equiv] — [Window.unbounded] reproduces the
      regular (windowless) semantics.
    - [law:theorem1-reduction] — Theorem 1: a caching run's hits (LRU,
      LFU, LFD, RAND, [Heeb.caching_fn]) equal the join results on
      {!Ssj_stream.Reduction.trace} of a join side that replays the
      cache's per-step contents. *)

val all : Check.t list
