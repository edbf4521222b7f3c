(** CSV persistence for traces.

    Lets experiment runs be archived, diffed and replayed exactly: one
    line per time step, `time,r_value,s_value`, with a fixed header.
    Round-tripping is loss-free (property-tested).

    Saving and loading return a typed {!error}, so tooling can report
    an unwritable path or a corrupt archive structurally (mirroring
    {!Ssj_prob.Pmf.validate} for weight vectors). *)

type error =
  | Bad_header of { found : string }
  | Bad_field of { line : int }  (** a field is not an integer *)
  | Wrong_arity of { line : int; fields : int }
  | Out_of_order of { line : int; time : int; expected : int }
  | Reserved_value of { line : int }
      (** a value is [min_int], which the join index reserves as its
          empty-slot marker ({!Ssj_prob.Itab}) *)
  | Io_error of { message : string }
      (** file could not be opened, read or written *)

val error_to_string : error -> string

val save : Trace.t -> filename:string -> (unit, error) result
val to_channel : Trace.t -> out_channel -> unit

val load_result : filename:string -> (Trace.t, error) result
val of_channel_result : in_channel -> (Trace.t, error) result

val header : string
(** The expected first line: ["time,r_value,s_value"]. *)
