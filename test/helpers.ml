(* Shared test utilities. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let rng seed = Ssj_prob.Rng.create seed

(* Monte-Carlo estimate of a probability with its sample count. *)
let monte_carlo ~trials f =
  let hits = ref 0 in
  for _ = 1 to trials do
    if f () then incr hits
  done;
  float_of_int !hits /. float_of_int trials

(* The engine's one selection routine, driven through a scored policy
   whose score is [score]: the last two candidates arrive, the rest are
   the cache.  Needs at least two candidates. *)
let keep_top ~capacity ~score candidates =
  let policy = Ssj_core.Baselines.prob_model ~partner_prob:score () in
  match List.rev candidates with
  | s :: r :: rest ->
    policy.Ssj_core.Policy.select ~now:0 ~cached:(List.rev rest)
      ~arrivals:[ r; s ] ~capacity
  | [ _ ] | [] -> invalid_arg "Helpers.keep_top: fewer than two candidates"
