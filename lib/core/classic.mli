(** Classic caching policies for the caching problem: the comparison
    points of the REAL experiment (Section 6.5) and the case studies of
    Section 5.

    LRU and LFU are the "perfect" versions (full recency/frequency
    bookkeeping, no approximation), as the paper specifies.  LFD is
    Belady's optimal offline policy \[5\], constructed from the full
    reference script.  LRU-k \[14\] is included as an extension.

    Each policy but RAND keeps one score per cache slot
    ({!Policy.slots}), re-scoring only the referenced slot (LFD all of
    them when its clock leaves [0, 1, 2, ...] of its script), and on a
    full miss drops {!Policy.drop_argmin}[ Newest_admitted]'s victim:
    the lowest score, ties to the most recently admitted entry, the
    fetched value admitted iff it scores at least that entry. *)

val rand_cache : rng:Ssj_prob.Rng.t -> Policy.cache
(** Evict a uniformly random entry on a miss with a full cache. *)

val lru : unit -> Policy.cache
val lfu : unit -> Policy.cache
(** Perfect LFU: reference counts over the entire history. *)

val lruk : k:int -> Policy.cache
(** Evict the entry whose [k]-th most recent reference is oldest (entries
    with fewer than [k] references count as oldest, tie-broken by LRU). *)

val lfd : reference:int array -> Policy.cache
(** Belady/LFD: evict the entry whose next reference is farthest in the
    future.  Needs the whole reference script. *)

val lfu_model : prob:(int -> float) -> Policy.cache
(** A₀-style policy: evict the entry with the smallest *model* reference
    probability — optimal for (almost) stationary reference streams
    (Section 5.2, \[2\]). *)
