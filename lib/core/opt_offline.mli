(** OPT-offline — the optimal offline joining algorithm of Das et al.
    \[8\], re-derived as a compact min-cost-flow network (see DESIGN.md).

    Given the full realisation of both streams, the maximum number of
    result tuples achievable with a size-[k] cache equals the negated
    min cost of a flow of value [k] through a *slot-chain* network:

    - free slots travel along a chain [u_0 → u_1 → … → sink] of
      capacity-[k] arcs;
    - a tuple [x] arriving at [t_x] with future match times
      [m_1 < m_2 < …] contributes a unit-capacity chain
      [u_{t_x} → c_1 → c_2 → …] whose arcs cost −1 (each collects one
      match), plus eviction arcs [c_j → u_{m_j}] of cost 0 returning the
      slot at the time of the last collected match.

    Evicting between matches is never better than evicting right after
    the previous match, and tuples can enter the cache only at their
    arrival time, so integral flows of value [k] correspond exactly to
    the achievable replacement plans.

    This is the OPT-OFFLINE line of Figures 8–12. *)

val max_results :
  ?band:int -> trace:Ssj_stream.Trace.t -> capacity:int -> unit -> int
(** Optimal number of join results over the whole trace (regular join
    semantics, same-time R–S matches excluded as in all our counts).
    [band] (default 0) switches to band-join matching. *)

val max_results_from :
  ?band:int ->
  trace:Ssj_stream.Trace.t ->
  capacity:int ->
  start:int ->
  unit ->
  int
(** Optimal count when results only start counting at time [start]
    (used to align with warm-up-discounted online measurements). *)

val max_results_curve :
  ?band:int ->
  trace:Ssj_stream.Trace.t ->
  capacities:int list ->
  start:int ->
  unit ->
  (int * int) list
(** Optimal counts for a whole list of cache sizes from a *single* solve:
    successive shortest paths make every intermediate flow value optimal
    for its own capacity, so the cost-vs-capacity curve falls out of the
    breakpoint list.  Orders of magnitude faster than solving per size on
    the dense WALK networks. *)

