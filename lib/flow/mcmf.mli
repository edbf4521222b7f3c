(** Min-cost flow on directed graphs with integer capacities and float costs.

    This is the network-flow building block required by both OPT-offline
    (Das et al., as cited by the paper) and FlowExpect (Section 3).  The
    paper invokes Goldberg's cost-scaling solver for its complexity bound;
    we substitute successive shortest augmenting paths with Johnson
    potentials — the optimum is identical (exact, integral), only the
    asymptotics differ (see DESIGN.md §5).

    The input must be a DAG: its positive-capacity arcs may not form a
    directed cycle (FlowExpect's time-expanded graph and OPT-offline's
    slot chain both are).  Arc costs may then be negative.  Initial node
    potentials come from one O(n + m) topological pass; each augmentation
    then runs Dijkstra on reduced costs. *)

type t

type arc = private int
(** Handle returned by [add_arc], usable to query the final flow. *)

val create : int -> t
(** [create n] makes an empty graph on nodes [0 .. n-1]. *)

val reset : t -> n:int -> unit
(** [reset g ~n] empties [g] and re-dimensions it to [n] nodes, keeping
    every internal arena (arc arrays, adjacency heads, solver scratch,
    the Dijkstra heap) for reuse.  A reset graph behaves exactly like a
    fresh [create n] — including being solvable again — without the
    per-step allocation churn; FlowExpect holds one such graph per
    policy and resets it every decision. *)

val add_arc : t -> src:int -> dst:int -> cap:int -> cost:float -> arc
(** Adds a directed arc (and its residual twin).  Requires [cap ≥ 0] and
    finite [cost]. *)

type result = {
  flow : int;      (** total flow actually pushed *)
  cost : float;    (** its total cost *)
}

val solve : t -> source:int -> sink:int -> target:int -> result
(** [solve g ~source ~sink ~target] pushes up to [target] units of flow
    along successively cheapest augmenting paths, *regardless of sign* of
    the path cost (we want minimum cost at exactly the target value, not a
    min-cost max-flow that stops at zero-profit).  Stops early only when
    the sink becomes unreachable.  May be called once per graph.

    @raise Invalid_argument if the positive-capacity arcs of [g] contain a
    directed cycle (arcs of capacity 0 are ignored). *)

val solve_curve :
  t ->
  source:int ->
  sink:int ->
  target:int ->
  (int * float) list * result
(** Like {!solve}, but also returns the (flow value, optimal cost)
    breakpoints after every augmentation.  Successive-shortest-paths
    invariants make the intermediate flows optimal for *their* value, so
    one solve yields the whole optimum-vs-capacity curve; costs between
    breakpoints interpolate linearly (constant marginal cost within one
    augmentation). *)

val flow_on : t -> arc -> int
(** Flow assigned to an arc by [solve]. *)
