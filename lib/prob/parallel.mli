(** Fork/join [Array.map] over OCaml 5 domains.

    Built for the experiment runner: the paper's figures average 50
    independent trace realisations per policy, and each realisation is a
    self-contained simulation — an embarrassingly parallel map.  Results
    land in their input slot, so the output is bit-identical to the
    sequential [Array.map] for any job count. *)

val env_int : string -> min:int -> default:int -> int
(** [env_int name ~min ~default] reads an integer environment variable:
    [default] when unset or empty, otherwise the (trimmed) value, which
    must parse as an integer [>= min].  Anything else raises
    [Invalid_argument] naming the variable — a typo must not silently
    become the default.  Every integer knob ([SSJ_JOBS], [SSJ_BENCH_RUNS],
    [SSJ_BENCH_LEN]) goes through it. *)

val default_jobs : unit -> int
(** Worker count from the [SSJ_JOBS] environment variable if set (an
    integer [>= 1], read by {!env_int}), otherwise
    [Domain.recommended_domain_count ()]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?jobs f arr] applies [f] to every element, using up to [jobs]
    domains (default {!default_jobs}; the calling domain counts as one).
    [f] must not share mutable state across elements.  If any
    application raises, the first exception (in claim order) is
    re-raised — but only after every spawned domain has been joined, so
    a raising job never hangs the caller or leaks a worker.  A failure
    while spawning the pool itself likewise stops and joins the workers
    already running before re-raising. *)

