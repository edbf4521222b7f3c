(** Incremental index over the simulated cache for O(band) match counting.

    A naive counter scans the whole cache per arrival; over a run that
    is O(steps × capacity).  This index maintains, per stream
    side, a multiplicity table from join-attribute value to the number of
    cached tuples currently inside the window, updated from the *diff*
    between consecutive cache selections.  An equijoin probe is then one
    table lookup and a band join sums 2·band + 1 of them.

    Correctness leans on two simulator invariants: selections are subsets
    of cached ∪ arrivals (so a tuple evicted once never reappears), and
    arrivals at step [t] carry [arrival = t] (so window expiry is
    monotone and a plain FIFO queue suffices).  {!insert} refuses
    negative uids. *)

type t

val create :
  ?window:Ssj_stream.Window.t -> ?band:int -> length:int -> unit -> t
(** [length] is a hint (the trace length) sizing the uid-indexed arrays;
    they grow on demand.  [band] defaults to 0, an equijoin. *)

val matches : t -> now:int -> Ssj_stream.Tuple.t -> int
(** Number of indexed partner-side tuples joining [arrival] at time
    [now] — equal to a scan of the cache installed so far
    ({!Ssj_conform.Ref_sim.count_matches}).  Expires out-of-window
    tuples as a side effect; [now] must not decrease across calls. *)

val insert : t -> Ssj_stream.Tuple.t -> unit
(** Index a tuple that just entered the cache (a kept arrival). *)

val remove_id : t -> uid:int -> value:int -> unit
(** Unindex an evicted cache member given its uid (which encodes the
    side) and join-attribute value.  No-op on a uid that is not counted
    (never inserted, or already expired out of the window). *)

(** {2 Conformance fault hook — test use only}

    The conformance suite ({!Ssj_conform}) must demonstrate that a real
    fast-path bug is caught by the differential oracles and shrunk to a
    tiny repro.  [set_band_probe_skew n] shifts every band probe window
    by [n] values — an injectable off-by-one in the O(band) counting
    path.  The hook is global (affects every index created afterwards
    and every live one), so callers must restore 0 when done; nothing in
    the library ever sets it. *)
module Testhook : sig
  val set_band_probe_skew : int -> unit
end
