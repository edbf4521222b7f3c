(** Aligned plain-text tables for the figure reproductions.

    Every figure in the paper's evaluation is a curve or bar chart; we
    print the underlying series as aligned rows so that shapes (who wins,
    by what factor, where the crossovers fall) are readable in a
    terminal and diffable in EXPERIMENTS.md. *)

val print :
  ?out:Format.formatter -> header:string list -> string list list -> unit
(** Column-aligned rendering; the header is underlined. *)

val float_cell : ?decimals:int -> float -> string

val series :
  ?out:Format.formatter ->
  ?decimals:int ->
  title:string ->
  x_label:string ->
  xs:string list ->
  columns:(string * float array) list ->
  unit ->
  unit
(** Print a titled table with one row per x value and one column per
    labelled series (lengths must agree). *)
