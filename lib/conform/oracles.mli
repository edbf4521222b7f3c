(** The differential oracle registry: every optimised path in the
    engine paired with an independent reference implementation.

    - [oracle:join-sim/indexed-vs-listscan] — the engine's default run
      (buffer step + incremental {!Ssj_engine.Join_index}) vs the naive
      list-scan simulator {!Ref_sim}, and on every case the index driven
      directly through a random cache evolution vs
      {!Ref_sim.count_matches} at every step; every other case has the
      evolution's shape (capacity 8, values -4..4, windows 3/6/9);
      shrinkable.
    - [oracle:keep-top/bounded-vs-sort] — the one selection routine
      behind {!Ssj_core.Policy.scored}, its recorded diff and its list
      [select] vs {!Ref_sim.keep_top_spec}, on random candidate sets (up
      to 60, capacities from 0 to past the candidates, tie-heavy and dead
      scores) and on engine-shaped steps of up to 402 candidates:
      engine-ordered (the insertion path) and shuffled over every score
      palette (the bucket pass; steps of ±1e308 or +∞ scores keep every
      candidate, so the full order is compared).  Past 64 candidates,
      the [policy.sort_*] counters must show distinct scores that took
      the bucket pass finishing in at most 2n moves.  Every fourth case
      scores one to three candidates of an engine step NaN: the step
      must raise [Invalid_argument] naming the policy, the step and one
      of their uids.
    - [oracle:cache-sim/slots-vs-list] — {!Ssj_engine.Cache_sim}'s
      stable slots vs the list loop {!Ref_sim.cache_replay}, for LRU,
      LFU, LFD, RAND, LRU-2 and A0 from {!Ssj_core.Classic} against
      two-call scored folds, and {!Ssj_core.Heeb.caching_fn} (tie-heavy
      scorer), {!Ssj_core.Heeb.caching} on a stationary and on a
      random-walk reference (the Markov first-passage H relative to the
      running value, against a kernel re-centred on each reference)
      against {!Ref_sim.keep_best_spec}: stationary references at
      capacities 0, 1, 2, 7 and 25, a capacity at least the domain, and
      evicted values re-referenced at once, relabelled over ±1e9 with
      [min_int] and [max_int]; LFD also on a non-monotone clock.  Equal
      hit flags and kept sets at every step.
    - [oracle:flow-expect/warm-vs-fresh] — warm-started
      {!Ssj_core.Flow_expect.decide} vs fresh per-step solves
      (bit-equal kept sets and plan values), and the policy's scored
      step vs the fresh plan written by {!Ref_sim.plan} (equal buffers
      and diffs).
    - [oracle:h1/curve-vs-direct-sum] — the precomputed random-walk
      joining curve vs {!Ssj_core.Precompute.walk_joining_h}.
    - [oracle:h1/kernel-vs-table] — the same curve's bits vs a build
      from {!Ssj_prob.Convolve.pair} levels (the construction of
      {!Ssj_prob.Convolve.Table}), zero-trimmed, with
      {!Ssj_prob.Pmf.add_into}: random steps, alpha in \[2, 150\],
      drift in \[-2, 2\], windows within ±300; one case per 20 of
      [count].
    - [oracle:h2/bicubic-vs-exact-columns] — bicubic surface control
      nodes vs exact first-passage columns.
    - [oracle:opt/exhaustive] — {!Ssj_core.Opt_offline.max_results} vs
      {!Ref_sim.opt_exhaustive} on tiny traces (2-8 steps, capacity 1-2,
      band 0-2, values within 2 of [min_int] or [max_int] among them);
      shrinkable.
    - [oracle:online-le-opt-offline] — every online policy's total
      bounded by {!Ssj_core.Opt_offline.max_results}, on {!opt_case};
      shrinkable.
    - [oracle:opt/curve-vs-single-solves] — the single-solve capacity
      curve vs per-capacity solves at capacities 1-5 (one missing from
      the curve is a violation), on {!opt_case} from [seed + 31];
      shrinkable.
    - [oracle:flow-expect-le-expectimax] — the Section 3.4 ordering
      (FlowExpect ≤ predetermined bound ≤ adaptive optimum).
    - [oracle:mcmf/ssp-vs-cycle-cancel] — the production min-cost-flow
      solver vs the independent cycle-cancelling oracle on seeded
      random DAGs.
    - [oracle:mcmf/resolve-vs-fresh] — a kept graph re-solved after its
      costs are rewritten vs a freshly built one, bit for bit. *)

val gen_case : ?allow_window:bool -> seed:int -> int -> Case.t
(** Case number [i] of stream [seed]: short trace over a narrow value
    domain, small cache, random policy/band/window; one case in four
    puts part of its values within 4 of [min_int] or [max_int].
    [allow_window:false] restricts to regular semantics (e.g. for OPT,
    which has no window variant).  Shared with the metamorphic laws. *)

val opt_case : seed:int -> int -> Case.t
(** OPT-offline's case stream: even cases are {!gen_case}'s windowless
    traces, odd ones tiny traces (2-8 steps over 0..2 or 0..4, in half
    the cases with values within 2 of [min_int] or [max_int]; capacity
    1-2, band 0-2) on which exhaustive search is exact.  Shared with
    [law:opt-capacity-monotone]; each OPT check offsets [seed] so it
    draws its own traces. *)

val h1_reference :
  step:Ssj_prob.Pmf.t ->
  drift:int ->
  l:Ssj_core.Lfun.t ->
  lo:int ->
  hi:int ->
  float array
(** The h1 curve's samples on [lo..hi] as [oracle:h1/kernel-vs-table]
    builds its reference: each level the {!Ssj_prob.Convolve.pair} of
    the last one and the step, zero-trimmed, accumulated with
    {!Ssj_prob.Pmf.add_into}. *)

val all : Check.t list
