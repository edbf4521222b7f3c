(** Assembles the algorithm line-ups of Section 6 for each configuration.

    Policies are returned as factories (fresh state per run).  The HEEB
    instances follow the paper's choices: [L_exp] with the per-scenario
    [α] (Section 5), trend-memoised computation for TOWER/ROOF/FLOOR,
    precomputed [h1] curves for WALK, and the bicubic [h2] surface for
    REAL. *)

type join_lineup = (string * (unit -> Ssj_core.Policy.join)) list

val trend_policies :
  Config.trend -> seed:int -> ?with_life:bool -> unit -> join_lineup
(** RAND, PROB, LIFE (window-aware per Section 6.2) and HEEB. *)

val trend_heeb : Config.trend -> unit -> Ssj_core.Policy.join
val trend_flow_expect : Config.trend -> lookahead:int -> unit -> Ssj_core.Policy.join

val walk_policies : Config.walk -> seed:int -> capacity:int -> join_lineup
(** RAND, PROB and HEEB (no LIFE: Section 6.2 notes random walks have no
    window).  [capacity] sets HEEB's [α]. *)

val walk_heeb : Config.walk -> capacity:int -> unit -> Ssj_core.Policy.join
val walk_flow_expect : Config.walk -> lookahead:int -> unit -> Ssj_core.Policy.join

type cache_lineup = (string * (unit -> Ssj_core.Policy.cache)) list

val real_heeb_of_surface :
  Ssj_core.Interp.Surface.t -> unit -> Ssj_core.Policy.cache
(** HEEB caching policy reading a prebuilt bicubic [h2] surface — lets a
    memory-size sweep share the DP work across all α values. *)

val real_surface_bounds : Ssj_model.Ar1.params -> int * int
(** Control-grid bounds used for the REAL surfaces: stationary mean
    ± 3.5 stationary standard deviations. *)

val real_surface :
  params:Ssj_model.Ar1.params -> capacity:int -> Ssj_core.Interp.Surface.t
(** The [h2] surface {!real_heeb} builds: α = cache size, a 5×5 control
    grid over {!real_surface_bounds}. *)

val real_heeb :
  params:Ssj_model.Ar1.params -> capacity:int -> unit -> Ssj_core.Policy.cache
(** HEEB over the precomputed bicubic [h2] surface (α = cache size);
    parameters are in 0.1 °C bin units ({!Real.bin_params}). *)
