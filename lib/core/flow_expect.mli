(** FlowExpect — Section 3.

    At every time step, build the time-expanded flow graph of Section 3.1
    over look-ahead [l]: slice [G_{t0}] holds the [k] cached tuples plus
    the two arrivals (determined nodes); each later slice copies every
    node of the previous slice (horizontal "keep" arcs costing the negated
    expected one-step benefit) and adds two undetermined arrival nodes,
    reachable from the duplicates through a per-slice connector node
    (replacement, cost 0) — the compact arc layout counted in the paper's
    Appendix D.  A min-cost integral flow of value [k] picks the best
    *predetermined* replacement plan (Theorem 2); the first slice's flow
    gives this step's decision.  The online {!policy} is a
    {!Policy.scored} kernel: the candidates that carry flow score above
    the rest, and the shared selection keeps them.

    The per-step graph solve makes FlowExpect expensive, and Section 3.4
    shows it is suboptimal regardless; it serves as a yardstick. *)

type plan = {
  keep : Ssj_stream.Tuple.t list;  (** the k tuples to retain at [t0] *)
  expected_benefit : float;
      (** expected number of results over [\[t0+1, t0+l\]] under the chosen
          plan (the negated min cost) *)
}

type handle
(** Warm-start state for repeated {!decide} calls (the policy holds one).
    It keeps:
    - one {!Ssj_flow.Mcmf} graph, whose topology depends only on the
      number of candidates and the look-ahead.  A call with the same
      pair only rewrites the arc costs and re-solves; a different pair
      rebuilds the graph on the old one's arrays.
    - an exact memo of the undetermined tuples' expected benefits
      ([Pmf.dot] of two laws), keyed by the two laws' probability vectors
      (physical identity) and the offset of their supports.  Laws that
      are shifts of one noise pmf, as the trend predictors' are, share
      their vector, so the memo serves every step after the first.
    Decisions are bit-identical with and without a handle. *)

val handle : unit -> handle
(** A fresh arena; share one per policy instance (not across domains). *)

val decide :
  ?handle:handle ->
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  lookahead:int ->
  cached:Ssj_stream.Tuple.t list ->
  arrivals:Ssj_stream.Tuple.t list ->
  capacity:int ->
  unit ->
  plan
(** One FlowExpect step at time [t0].  The predictors must already have
    observed everything up to and including [t0] (history [x̄_{t0}]), and
    [arrivals] are the tuples that arrived at [t0].  [lookahead ≥ 1]. *)

val policy :
  ?name:string ->
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  lookahead:int ->
  unit ->
  Policy.join
(** The online policy, a {!Policy.scored} one: its observe hook advances
    the two predictors, and its kernel solves the step's graph for
    [min capacity n] units on its own handle (the {!decide} of the step)
    and scores candidate [e] of [n] as [n - e] when its source arc
    carries flow and [-(e + 1)] when not.  The solve always carries
    [min capacity n] units (a unit source arc and a keep chain to the
    sink per candidate), so the shared selection keeps exactly the
    flow's candidates, in cache-then-arrivals order, and drops the rest
    in ascending position; a solve that carries fewer raises
    [Invalid_argument] naming the policy and the step.  The scores are
    finite and distinct, so FlowExpect's drops count as neither dead nor
    tied.  Predictors are passed positioned before the first arrival.
    [lookahead ≥ 1]. *)
