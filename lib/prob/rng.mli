(** Deterministic, splittable pseudo-random number generation.

    Every stochastic component in the library threads an explicit [Rng.t]
    so that experiments are reproducible run-by-run: the same seed always
    yields the same streams, the same policy tie-breaks, and therefore the
    same join counts. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. *)

val split : t -> t
(** [split rng] derives an independent generator from [rng], advancing
    [rng].  Used to give each stream / run its own generator so that adding
    a consumer does not perturb the draws seen by others. *)

val int : t -> int -> int
(** [int rng n] draws uniformly from [0, n-1]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float rng x] draws uniformly from [0, x). *)

val unit_float_into : t -> float array -> int -> unit
(** [unit_float_into rng dst i] stores in [dst.(i)] exactly the value
    [float rng 1.0] would return, advancing [rng] the same way, without
    allocating — the per-candidate draw of RAND's scoring kernel. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli rng p] is true with probability [p]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal draw via the Box–Muller transform. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. *)
