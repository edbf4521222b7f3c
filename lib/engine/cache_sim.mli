(** The caching-problem executor.

    Replays a reference stream against a database relation with one tuple
    per join-attribute value (referential integrity).  Each step is a hit
    if the referenced value is cached, a miss otherwise; on a miss the
    tuple is fetched and the policy may cache it.

    The cache lives in stable slots ({!Ssj_core.Policy.slots}): per slot
    a value, an admission stamp and the policy's score, plus an
    {!Ssj_prob.Itab} from value to slot, so the hit test is one probe
    and a hit touches only its own slot.  On a miss the fetched value is
    staged in slot [n].  The policy decides only a full miss, naming one
    candidate to drop, and the simulator applies it; a drop out of range
    raises [Invalid_argument] naming the policy and the step. *)

type result = {
  hits : int;
  misses : int;
  counted_hits : int;  (** hits at times ≥ warm-up *)
  counted_misses : int;
}

type t
(** One run's cache, driven one reference at a time. *)

val create : policy:Ssj_core.Policy.cache -> capacity:int -> t
(** An empty cache of [capacity] slots (a negative capacity counts as
    0) stepped by [policy]. *)

val access : t -> now:int -> int -> bool
(** [access t ~now value] serves one reference at time [now] and tells
    whether it hit.  Allocates nothing in the steady state. *)

val contents : t -> int list
(** The cached values, most recently admitted first. *)

val run :
  reference:int array ->
  policy:Ssj_core.Policy.cache ->
  capacity:int ->
  ?warmup:int ->
  unit ->
  result
(** Replay [reference], the access at index [t] happening at time [t]. *)

val run_logged :
  reference:int array ->
  policy:Ssj_core.Policy.cache ->
  capacity:int ->
  unit ->
  result * int list array
(** Also returns the cache contents after each step, as {!contents}
    (for recounting and for the Theorem 1 reduction). *)
