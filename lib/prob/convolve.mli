(** Convolution of integer pmfs — the distribution of sums of independent
    variables.  Random-walk predictors (Section 5.5) need the [Δt]-fold
    convolution of the step distribution; [Table] is their memo of
    levels, each built from the one below it with {!pair}.  The
    precomputed h1 curve does not keep a table: it rolls a single level
    forward with {!pair} ([Ssj_core.Precompute.walk_joining_curve]), so
    its levels have the same bits as the table's.

    The naive O(w_a·w_b) kernel is the only one: every walk in the repo
    steps by the 11-cell [Dist.discretized_normal ~sigma:1.0 ~bound:5],
    so a level of width [w] costs O(11·w). *)

val pair : Pmf.t -> Pmf.t -> Pmf.t
(** [pair a b] is the pmf of [A + B] for independent [A ~ a], [B ~ b]:
    the naive kernel, renormalised with compensated summation
    ({!Pmf.of_dense}). *)

val pair_naive : Pmf.t -> Pmf.t -> Pmf.t
(** The same products as {!pair}, renormalised by plain summation
    ({!Pmf.create}) — the independent oracle of
    [Ssj_core.Precompute.walk_joining_h]. *)

module Table : sig
  type t
  (** Memoised convolution levels of a fixed step distribution — the
      random-walk predictors' memo, which keeps every level it built. *)

  val create : Pmf.t -> t
  val step : t -> Pmf.t

  val get : t -> int -> Pmf.t
  (** [get tbl n] is the [n]-fold convolution ([n ≥ 1]).  Every missing
      level up to [n] is built in order, level [k] as
      [pair level_(k−1) step], so a sequential scan costs one
      convolution per new level and a level's bits do not depend on the
      order of queries.  Debug builds assert each level's total stays
      within 1e-9 of 1. *)
end
