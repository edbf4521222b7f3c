(** Engine-wide observability: monotonic counters and value histograms
    behind a runtime on/off gate, plus structured JSONL
    event emission and registry snapshots.

    The gate is initialised from the [SSJ_OBS] environment variable
    (unset, [""], ["0"] and ["false"] mean off) and can be flipped
    programmatically with {!set_enabled} — the bench harness and the
    test suite use that to measure and to assert determinism without
    re-exec'ing.

    Cost contract: when the gate is off, every hot-path operation
    ({!Counter.incr}, {!Histogram.observe}, {!event})
    is one load and one conditional branch — no allocation, no atomic
    traffic, no syscalls.  Instrument sites that must build an argument
    (an event field list, a derived value) should guard with {!on}.

    All mutation goes through [Atomic.t] cells, so metrics collected
    under the Domain-parallel runner ([SSJ_JOBS] > 1) are exact, not
    sampled; snapshots taken while domains are still running are
    linearizable per cell but not across cells. *)

val on : unit -> bool
(** [on ()] is the current gate state.  Cheap enough for per-step use. *)

val set_enabled : bool -> unit
(** Override the [SSJ_OBS] gate for this process. *)

module Counter : sig
  type t

  val create : string -> t
  (** Registers the counter globally (typically at module init).
      Creation is not gated: a disabled process pays only the handful
      of registry cells. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

module Histogram : sig
  type t

  val create : ?width:int -> ?buckets:int -> string -> t
  (** Linear histogram of non-negative integer observations: bucket [i]
      counts values in [[i*width, (i+1)*width)]; the last bucket absorbs
      overflow, negatives clamp to bucket 0.  Defaults: [width = 1],
      [buckets = 64].  Tracks count / sum / min / max exactly. *)

  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val min_value : t -> int
  (** [max_int] when empty. *)

  val max_value : t -> int
  (** [min_int] when empty. *)

  val name : t -> string
end

(** {1 Snapshots} *)

type view =
  | Counter_v of { name : string; value : int }
  | Histogram_v of {
      name : string;
      count : int;
      sum : int;
      min_v : int;  (** meaningless when [count = 0] *)
      max_v : int;
      width : int;
      buckets : (int * int) list;  (** (bucket lower bound, count), non-zero only *)
    }

val snapshot : unit -> view list
(** Current value of every registered metric, in registration order.
    Zero-valued counters and empty histograms are included, so a
    snapshot's shape is stable across runs. *)

val reset : unit -> unit
(** Zero every registered metric (the registry itself is kept).  The
    per-policy bench snapshots reset between policies so each snapshot
    isolates one policy's engine activity. *)

val json_of_snapshot : view list -> Json.t
(** One JSON object: counters as numbers, histograms as nested
    objects.  Keys are metric names, in registration order. *)

(** {1 JSONL events} *)

type sink = [ `Null | `Path of string | `Channel of out_channel ]

val set_event_sink : sink -> unit
(** Where {!event} lines go.  The initial sink is [`Path p] when
    [SSJ_OBS_FILE=p] is set, else [`Null].  [`Path] opens in append
    mode at {!open_event_sink} or on first emission. *)

val open_event_sink : unit -> (unit, string) result
(** Open a [`Path] sink now, so that a file that cannot be written is
    reported before any run starts rather than inside its first
    {!event}.  On failure the sink becomes [`Null] and the error is the
    system's message, which names the path.  [Ok ()] for the other
    sinks. *)

val event : name:string -> (string * Json.t) list -> unit
(** Append one JSON line [{"event": name, ...fields}] to the sink when
    the gate is on; no-op (and no I/O) when off or the sink is [`Null].
    Writes are serialised across domains.  Never raises [Sys_error]: a
    sink that cannot be opened or written becomes [`Null], with one
    line on stderr. *)
