(** Convolution of integer pmfs — the distribution of sums of independent
    variables.  Random-walk predictors (Section 5.5) need the [Δt]-fold
    convolution of the step distribution; [Table] is their memo of
    levels, so a horizon-[n] query costs one direct convolution on a
    sequential scan, or O(log n) doubling steps on a cold jump.  The
    precomputed h1 curve does not use it: it rolls a single level
    forward with {!pair} ([Ssj_core.Precompute.walk_joining_curve]).

    [pair] dispatches between the naive O(w²) kernel and an FFT path
    ({!Fftconv}) once both supports are wide enough to amortise the
    transforms; [pair_naive] keeps the direct kernel as the
    property-test oracle. *)

val pair : Pmf.t -> Pmf.t -> Pmf.t
(** [pair a b] is the pmf of [A + B] for independent [A ~ a], [B ~ b].
    Naive kernel for narrow supports, FFT ({!Fftconv.should_use}) for
    wide ones; either way the result is renormalised with compensated
    summation ({!Pmf.of_dense}). *)

val pair_naive : Pmf.t -> Pmf.t -> Pmf.t
(** The direct O(w_a·w_b) kernel — the oracle the FFT/doubling paths are
    property-tested against (1e-9 total variation). *)

val nfold : Pmf.t -> int -> Pmf.t
(** [nfold p n] is the pmf of the sum of [n ≥ 1] i.i.d. draws from [p],
    by exponentiation-by-doubling (O(log n) convolutions). *)

module Table : sig
  type t
  (** Memoised convolution levels of a fixed step distribution — the
      random-walk predictors' memo, which keeps every level it built. *)

  val create : Pmf.t -> t
  val step : t -> Pmf.t

  val get : t -> int -> Pmf.t
  (** [get tbl n] is the [n]-fold convolution ([n ≥ 1]).  Sequential
      scans build level [n] from level [n−1] (amortised one convolution
      per new level); a query far past the filled prefix is answered by
      doubling instead of filling every intermediate level.  Levels are
      renormalised with compensated summation; debug builds assert the
      total stays within 1e-9 of 1. *)
end
