(** Open-addressed [int -> float] table; the float twin of {!Itab}.

    Values live in an unboxed float array, so lookups allocate nothing.
    Every int is a valid key, [min_int] and [max_int] included.  No
    removal. *)

type t

val create : ?size:int -> unit -> t

val find_default : t -> int -> float -> float
(** [find_default t k d] is the value bound to [k], or [d] if absent. *)

val set : t -> int -> float -> unit
