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
    gives this step's decision.

    The per-step graph solve makes FlowExpect expensive, and Section 3.4
    shows it is suboptimal regardless; it serves as a yardstick. *)

type plan = {
  keep : Ssj_stream.Tuple.t list;  (** the k tuples to retain at [t0] *)
  expected_benefit : float;
      (** expected number of results over [\[t0+1, t0+l\]] under the chosen
          plan (the negated min cost) *)
}

type handle
(** Warm-start arena for repeated {!decide} calls: holds one reusable
    {!Ssj_flow.Mcmf} graph (reset, not reallocated, each step — see
    {!Ssj_flow.Mcmf.reset}) and caches the per-offset conditional-law
    arrays, revalidated by physical equality of the predictors (they are
    immutable, so [==] proves the laws are current).  Decisions are
    bit-identical with and without a handle; the handle only removes
    per-step allocation and law recomputation. *)

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
(** The online policy: observes arrivals, then calls {!decide} each step.
    Predictors are passed positioned before the first arrival. *)
