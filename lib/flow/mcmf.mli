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
    then runs Dijkstra on reduced costs.

    A graph's topology is fixed by its first solve; its costs are not.
    Callers that solve one graph shape many times with changing costs
    (FlowExpect, every step) build it once, then alternate
    {!set_cost}/{!set_costs} with re-solves, which skip the adjacency
    and topological-order builds and allocate nothing. *)

type t

type arc = private int
(** Handle returned by [add_arc], usable to query the final flow. *)

val create : ?reuse:t -> int -> t
(** [create n] makes an empty graph on nodes [0 .. n-1].  With
    [~reuse:g], the new graph takes over [g]'s arrays, growing them only
    where it needs more room, so a caller that changes topology now and
    then (FlowExpect while the cache fills) does not allocate a graph's
    worth of arrays each time.  [g] is consumed: it must not be used
    again. *)

val add_arc : t -> src:int -> dst:int -> cap:int -> cost:float -> arc
(** Adds a directed arc (and its residual twin).  Requires [cap ≥ 0] and
    finite [cost].

    @raise Invalid_argument once [g] has been solved: the first solve
    freezes the topology. *)

val set_cost : t -> arc -> float -> unit
(** [set_cost g a c] makes [c] (finite) the cost of arc [a] from the next
    solve on.  Allowed before and between solves. *)

val set_costs : t -> float array -> unit
(** [set_costs g c] is [set_cost g a c.(a)] for every arc [a] of [g]
    ([c] may be longer).  Arc handles are the integers [0, 1, ...] in
    add order.  One call writes a whole cost vector without boxing a float
    per arc, which a [set_cost] loop in another module would. *)

type result = {
  flow : int;      (** total flow actually pushed *)
  cost : float;    (** its total cost *)
}

val solve : t -> source:int -> sink:int -> target:int -> result
(** [solve g ~source ~sink ~target] pushes up to [target] units of flow
    along successively cheapest augmenting paths, *regardless of sign* of
    the path cost (we want minimum cost at exactly the target value, not a
    min-cost max-flow that stops at zero-profit).  Stops early only when
    the sink becomes unreachable.

    Re-runnable: every solve starts from the capacities as added and the
    current costs, and its result — flow, cost bits and every
    {!flow_on} — equals that of a freshly built graph with the same arcs
    and costs.  The first solve freezes the topology: it builds the
    adjacency, the topological order and the solver scratch, which later
    solves reuse.

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
(** Flow assigned to an arc by the last solve. *)
