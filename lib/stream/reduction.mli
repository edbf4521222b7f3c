(** The caching→joining reduction of Section 2 (Theorem 1).

    Given a reference stream over value domain [D], build the pair of
    transformed streams

    - [R']: the [i]-th occurrence of value [v] becomes the pair [(v, i−1)];
    - [S']: the [i]-th occurrence of value [v] becomes [(v, i)]

    so that neither stream contains duplicates, each [S'] tuple joins with
    at most one future [R'] tuple, and the number of join results under any
    *reasonable* policy equals the number of cache hits of the original
    caching problem.

    Pairs are encoded injectively into [int] so the joining machinery runs
    unchanged; [decode] recovers the pair. *)

type t

val transform : int array -> t
(** [transform reference] builds the transformed streams. *)

val trace : t -> Trace.t
(** The transformed [R'], [S'] value scripts as a joining-problem trace. *)

val decode : t -> int -> int * int
(** The (value, occurrence) pair behind a code of the transformed streams
    (an injective encoding); raises [Not_found] for codes never
    produced. *)

val reference : t -> int array
