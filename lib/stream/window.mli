(** Sliding-window bookkeeping — Section 7.

    Under the sliding-window semantics only tuples that arrived during
    [\[t0 − w, t0\]] participate in the join.  A tuple's *remaining
    lifetime* [l(x) = arrival(x) + w − t0] is the number of further steps
    it stays inside the window. *)

type t

val create : width:int -> t
(** [width] is [w ≥ 0]. *)

val width : t -> int

val inside : t -> now:int -> Tuple.t -> bool
(** Is the tuple still within the window at time [now]? *)

val remaining_lifetime : t -> now:int -> Tuple.t -> int
(** [l(x)]; 0 or negative means expired. *)

val remaining_at : t -> now:int -> arrival:int -> int
(** [l(x)] from the arrival time alone, for callers holding a uid
    rather than a tuple. *)

val unbounded : t
(** Regular join semantics expressed as an (effectively) infinite window —
    lets window-aware heuristics run unchanged on unwindowed problems. *)
