(** Finite probability mass functions over the integers.

    A [Pmf.t] stores probabilities on a contiguous integer support
    [\[lo, hi\]]; values outside the support have probability 0.  All
    constructors normalise, so every value of type [t] sums to 1 (up to
    floating-point rounding, which [total] lets tests check).

    This is the value-domain representation used throughout the paper: join
    attributes are discrete, and every stream model answers queries of the
    form "probability that the attribute equals [v] at horizon [Δt]" with a
    [Pmf.t]. *)

type t

val create : lo:int -> float array -> t
(** [create ~lo probs] builds the pmf with [Pr{X = lo + i} = probs.(i)]
    (after normalisation).  Raises [Invalid_argument] if [probs] is empty,
    contains a negative or non-finite weight, or sums to 0. *)

val of_assoc : (int * float) list -> t
(** Build from (value, weight) pairs; weights for equal values accumulate. *)

val of_dense : lo:int -> float array -> t
(** Like {!create} but takes ownership of [probs] (no copy) and normalises
    in place by a Neumaier-compensated total — the constructor used by the
    convolution kernels, where repeated naive renormalisation would let
    float mass drift.  The caller must not mutate the array afterwards. *)

val point : int -> t
(** Point mass at a value. *)

val lo : t -> int
val hi : t -> int
(** Inclusive support bounds. *)

val prob : t -> int -> float
(** [prob p v] is [Pr{X = v}]; 0 outside the support. *)

val total : t -> float
(** Sum of all stored probabilities (≈ 1). *)

val mean : t -> float
val variance : t -> float
val stddev : t -> float

val interval_prob : t -> lo:int -> hi:int -> float
(** [Pr{lo ≤ X ≤ hi}]; 0 when [lo > hi].  Used by band-join benefits. *)

val shift : t -> int -> t
(** [shift p d] is the pmf of [X + d]. *)

val sample : t -> Rng.t -> int
(** Draw from the pmf by inverse-cdf walk. *)

val iter : t -> (int -> float -> unit) -> unit

val unsafe_to_dense : t -> float array
(** The stored probability vector itself, no copy — for read-only
    kernels such as the naive convolution.  The caller must not mutate
    it. *)

val trim_zeros : t -> t
(** [trim_zeros p] drops the entries that are exactly [0.0] at both ends
    of the support and keeps every other entry bit for bit; it does not
    renormalise.  Returns [p] itself when neither end is zero.  Deep
    random-walk convolution levels underflow to zero in both tails, so
    rolling a trimmed level forward skips cells that can only add
    [+0.0]. *)

val dot : t -> t -> float
(** [dot a b] = [Σ_v Pr{A = v}·Pr{B = v}] — the probability that two
    independent draws coincide.  This is the expected benefit of keeping an
    *undetermined* tuple in FlowExpect's flow graph (Section 3.1). *)

val add_into : t -> dst:float array -> lo:int -> scale:float -> unit
(** [add_into t ~dst ~lo ~scale] does [dst.(i) ← dst.(i) + scale·Pr{X = lo+i}]
    over the overlap, with no bounds-checked [prob] per cell — the h1
    oracle's accumulation; [Convolve.Rolling.add_into] is the same on a
    rolling level. *)

val equal : ?eps:float -> t -> t -> bool
(** Pointwise comparison over the union of supports, tolerance [eps]
    (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
