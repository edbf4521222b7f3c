(** Convolution of integer pmfs — the distribution of sums of independent
    variables.  Random-walk predictors (Section 5.5) need the [Δt]-fold
    convolution of the step distribution; [Table] is their memo of
    levels, each built from the one below it with {!pair}.  The
    precomputed h1 curve keeps no table: {!Rolling} rolls a single level
    forward in two reused buffers
    ([Ssj_core.Precompute.walk_joining_curve]), with the same bits as
    the table's levels.

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

val tiny_mul : float -> float -> float
(** [tiny_mul x b] is [x *. b], bit for bit, for [+0.0 ≤ x < 2^-60]
    ([-0.0] excluded: its bits are not an integer on the subnormal
    grid) and [0 < b ≤ 2], computed so that no multiply has a subnormal
    operand or result: such a multiply takes a microcode assist on x86
    (~70 ns against ~1.5 ns).  With [m = x·2^1074] (an integer: a
    subnormal [x]'s bits, or two exact power-of-two scalings of a
    normal one) and [p = fl(m·b)]: [p ≥ 2^52] scales back by
    [2^-1074]; below that the product is subnormal, and [p] rounded
    half-even to an integer ([(p + 2^52) − 2^52]) is its bit pattern.
    Rounding [p] instead of the exact [m·b] can differ only when [p] is
    a half-integer; that case falls back to the hardware [x *. b].  In
    that range [m < 2^1014] and [p < 2^1015], so neither overflows.
    {!Rolling} calls it only there: with [b] a step cell (at most 1), a
    [1/sum] scale near 1 or an L weight in [(0, 2\]], for [x] below
    [min(2^-1021/b, 2^-60)]; a larger weight keeps the hardware
    product. *)

module Rolling : sig
  type t
  (** One convolution level of a fixed step, rolled forward in place. *)

  val create : Pmf.t -> t
  (** Level 1: the step itself, with any [-0.0] cell stored as [+0.0]
      (the same sums and products). *)

  val advance : t -> unit
  (** Level [k] to level [k + 1], equal to [Table.get _ (k + 1)] bit for
      bit, with no allocation once the buffers are wide enough.  One
      output-stationary pass over the zero-padded level adds each cell's
      products in {!pair}'s ascending-input order from [+0.0], with
      {!tiny_mul} for every product whose operand or result is below
      [2^-1021], and carries {!Pmf.of_dense}'s weight check and
      Neumaier total; the [1/sum] scale follows (skipped when it is
      exactly 1.0, a no-op on every cell), then the exact-zero tails
      are trimmed.  Debug builds assert the level's total stays within
      1e-9 of 1. *)

  val add_into : t -> dst:float array -> lo:int -> scale:float -> unit
  (** {!Pmf.add_into} on the current level, bit for bit, with
      {!tiny_mul} for the tiny products. *)
end

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
