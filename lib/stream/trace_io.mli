(** CSV persistence for traces.

    Lets experiment runs be archived, diffed and replayed exactly: one
    line per time step, `time,r_value,s_value`, with a fixed header.
    Round-tripping is loss-free (property-tested).

    Loading has two forms: the [_result] functions return a typed
    {!error} so replay tooling can report corrupt archives structurally
    (mirroring {!Ssj_prob.Pmf.validate} for weight vectors); {!load}
    raises [Failure] with the same rendered message. *)

type error =
  | Bad_header of { found : string }
  | Bad_field of { line : int }  (** a field is not an integer *)
  | Wrong_arity of { line : int; fields : int }
  | Out_of_order of { line : int; time : int; expected : int }
  | Reserved_value of { line : int }
      (** a value is [min_int], which the join index reserves as its
          empty-slot marker ({!Ssj_prob.Itab}) *)
  | Io_error of { message : string }  (** file could not be opened *)

val error_to_string : error -> string

val save : Trace.t -> filename:string -> unit
val to_channel : Trace.t -> out_channel -> unit

val load_result : filename:string -> (Trace.t, error) result
val of_channel_result : in_channel -> (Trace.t, error) result

val load : filename:string -> Trace.t
(** Raises [Failure] with a line-numbered message on malformed input. *)

val header : string
(** The expected first line: ["time,r_value,s_value"]. *)
