(** The one JSON module: a value type, one escaping writer and a small
    strict reader.

    Every JSON file the project writes or reads goes through here: the
    bench artifact [BENCH_joining.json], metric snapshots and JSONL
    events ({!Obs}) and conformance repro files ([Ssj_conform.Case]).

    Numbers keep their literal text, both when built ({!int},
    {!fixed}) and when read, so a value read from one file and written
    to another comes out byte-identical, and each field keeps the
    rounding its writer chose. *)

type t =
  | Null
  | Bool of bool
  | Number of string  (** the literal, e.g. ["4066.2200"] *)
  | String of string
  | Array of t list
  | Object of (string * t) list  (** members in file order *)

val int : int -> t

val fixed : int -> float -> t
(** [fixed d x] writes [x] with [d] decimals (["%.*f"]); non-finite
    values become [Null], which JSON can represent. *)

(** {1 Writing} *)

val to_string : t -> string
(** One line, with a comma and a space between members.  Strings
    escape the double quote, the backslash and every control character,
    so any OCaml string round-trips through {!of_string}. *)

val pretty : t -> string
(** Multi-line, two-space indent.  An array or object stays on one
    line when it fits in 100 columns; otherwise it puts one member per
    line.  Ends with a newline. *)

(** {1 Reading} *)

val of_string : string -> (t, string) result
(** Strict parse of one value (the RFC 8259 grammar) surrounded by
    optional whitespace; the error names the byte offset. *)

val of_file : string -> (t, string) result
(** {!of_string} on a file's whole contents; an unreadable file is an
    [Error] carrying the system message. *)

val member : string -> t -> t option
(** First member named so, if the value is an object. *)

val as_int : t -> int option
(** An integer literal (no fraction or exponent). *)

val as_float : t -> float option
val as_string : t -> string option
val as_list : t -> t list option
