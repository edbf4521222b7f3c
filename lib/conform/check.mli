(** One registered conformance check: an oracle pair, a metamorphic
    law, or a golden digest. *)

type outcome =
  | Pass of { cases : int; note : string }
  | Fail of { detail : string; case : Case.t option }
      (** [case] is present when the failure is a replayable
          (trace, capacity, policy) triple the shrinker can minimise *)

type kind = Oracle | Law | Golden

val kind_to_string : kind -> string

type t = {
  name : string;  (** e.g. ["oracle:join-sim/indexed-vs-listscan"] *)
  kind : kind;
  fast : string;  (** what is being checked (the optimised path) *)
  reference : string;  (** what it is checked against *)
  run : seed:int -> count:int -> outcome;
      (** sweep [count] generated cases from [seed]; first violation
          wins *)
  replay : (Case.t -> string option) option;
      (** re-evaluate a single case — [Some detail] means it violates.
          Present exactly when failures carry a case; doubles as the
          shrinker's predicate and the [--replay] entry point. *)
}

val make :
  name:string ->
  kind:kind ->
  fast:string ->
  reference:string ->
  (seed:int -> count:int -> outcome) ->
  t
(** A check whose failures carry no case ([replay = None]); replayable
    checks come from {!of_violation}.  A check over generated cases
    runs them through {!sweep}. *)

val sweep : note:string -> count:int -> (int -> string option) -> outcome
(** [sweep ~note ~count violation] runs cases [0 .. count - 1] in order
    and fails on the first whose [violation i] is [Some detail] or
    raises, with detail ["case i: detail"] or ["case i: raised exn"]
    and no case attached.  Otherwise [Pass { cases = count; note }]. *)

val of_violation :
  name:string ->
  kind:kind ->
  fast:string ->
  reference:string ->
  gen:(seed:int -> int -> Case.t) ->
  (Case.t -> string option) ->
  t
(** The replayable shape: {!sweep} over case [i] of [seed] from [gen],
    failing with the case attached, and the same violation function as
    the [replay] hook, where an exception reads ["raised exn"]. *)
