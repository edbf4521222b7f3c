open Ssj_prob
open Ssj_core

type join_lineup = (string * (unit -> Policy.join)) list
type cache_lineup = (string * (unit -> Policy.cache)) list

let trend_heeb cfg () =
  let r, s = Config.predictors cfg in
  let l = Lfun.exp_ ~alpha:(Config.alpha cfg) in
  Heeb.joining ~r ~s ~l ~mode:(`Memo_trend cfg.Config.speed) ()

let trend_flow_expect cfg ~lookahead () =
  let r, s = Config.predictors cfg in
  Flow_expect.policy ~r ~s ~lookahead ()

let trend_policies cfg ~seed () =
  let lifetime = Config.lifetime cfg in
  [
    ("RAND", fun () -> Baselines.rand ~rng:(Rng.create seed) ~lifetime ());
    ("PROB", fun () -> Baselines.prob ~lifetime ());
    ("LIFE", fun () -> Baselines.life ~lifetime ());
    ("HEEB", trend_heeb cfg);
  ]

let walk_curve w ~capacity =
  let alpha = float_of_int (max 2 capacity) in
  let l = Lfun.exp_ ~alpha in
  Precompute.walk_joining_curve ~step:w.Config.step ~drift:w.Config.drift ~l
    ~lo:(-100) ~hi:100

let walk_heeb w ~capacity =
  (* Both streams share the step law, so one curve serves both sides. *)
  let curve = walk_curve w ~capacity in
  fun () -> Heeb.joining_curves ~h_r_tuples:curve ~h_s_tuples:curve ()

let walk_flow_expect w ~lookahead () =
  let r, s = Config.walk_predictors w in
  Flow_expect.policy ~r ~s ~lookahead ()

let walk_policies w ~seed ~capacity =
  [
    ("RAND", fun () -> Baselines.rand ~rng:(Rng.create seed) ());
    ("PROB", fun () -> Baselines.prob ());
    ("HEEB", walk_heeb w ~capacity);
  ]

let real_surface_bounds params =
  let mean = Ssj_model.Ar1.stationary_mean params in
  let sd = Ssj_model.Ar1.stationary_stddev params in
  ( int_of_float (Float.round (mean -. (3.5 *. sd))),
    int_of_float (Float.round (mean +. (3.5 *. sd))) )

let real_heeb_of_surface surface () =
  (* Staged: contract the surface at [last] once per full miss, then a
     4-term product per candidate, bit-equal to [Surface.eval]. *)
  let scorer = Interp.Surface.scorer surface in
  Heeb.caching_kernel ~name:"HEEB(h2)" (fun ~now:_ ~last ~n ~values ~scores ->
      Interp.Surface.score_at scorer ~y:last ~n values scores)

let real_surface ~params ~capacity =
  let alpha = float_of_int (max 2 capacity) in
  let l = Lfun.exp_ ~alpha in
  let lo, hi = real_surface_bounds params in
  Precompute.ar1_caching_surface params ~l ~vx_lo:lo ~vx_hi:hi ~x0_lo:lo
    ~x0_hi:hi ~nv:5 ~nx:5 ()

let real_heeb ~params ~capacity () =
  real_heeb_of_surface (real_surface ~params ~capacity) ()
