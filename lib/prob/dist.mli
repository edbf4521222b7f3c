(** Constructors for the concrete noise / step distributions used by the
    paper's experiment configurations (Section 6.1, Figure 7). *)

val uniform : lo:int -> hi:int -> Pmf.t
(** Discrete uniform over [\[lo, hi\]] — FLOOR's noise shape. *)

val discretized_normal : sigma:float -> bound:int -> Pmf.t
(** Zero-mean normal with standard deviation [sigma], discretised by
    integrating the density over unit bins and truncated to
    [\[-bound, bound\]], then renormalised — TOWER's and ROOF's noise shape
    ("bounded normal") and the WALK step distribution (with a wide bound).
    Requires [sigma > 0] and [bound ≥ 0]. *)

val discretized_normal_mu : mu:float -> sigma:float -> lo:int -> hi:int -> Pmf.t
(** General discretised normal on an explicit support window. *)
