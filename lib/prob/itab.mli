(** Open-addressed [int -> int] table for simulation hot paths.

    A lean alternative to [Hashtbl] when both keys and values are machine
    integers: no allocation on lookup, multiplicative hashing, linear
    probing.  Every int, [min_int] and [max_int] included, is a valid key.
    [set]/[add] never remove entries — a counter driven to zero keeps its
    slot; only {!decr} and {!remove} free slots. *)

type t

val create : ?size:int -> unit -> t
(** [size] is a capacity hint (default 16). *)

val find_default : t -> int -> int -> int
(** [find_default t k d] is the value bound to [k], or [d] if absent.
    Never allocates. *)

val mem : t -> int -> bool
(** [mem t k] is [true] iff [k] is bound.  Never allocates. *)

val set : t -> int -> int -> unit

val add : t -> int -> int -> unit
(** [add t k delta] adds [delta] to [k]'s value, treating an absent key
    as 0. *)

val decr : t -> int -> unit
(** [decr t k] is [add t k (-1)], but physically frees the slot when the
    counter reaches zero (backward-shift deletion).  Use for counters
    whose key set churns — it keeps the table at working-set size. *)

val remove : t -> int -> unit
(** [remove t k] unbinds [k], freeing its slot; a no-op when [k] is
    absent.  Never allocates. *)

val iter : (int -> int -> unit) -> t -> unit
