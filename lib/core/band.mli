(** Band (non-equality) joins — the generalisation the paper lists as
    future work (Section 8).

    Under band semantics a cached tuple [x] joins an incoming partner
    tuple [y] when [|v_x − v_y| ≤ band] (band 0 = the paper's equijoin).
    The whole framework carries over with the single change that the
    per-step benefit probability becomes an *interval* probability:

    [pr_x(Δt) = Pr{ v_x − band ≤ X^partner_{t0+Δt} ≤ v_x + band | x̄ }],

    so ECBs, dominance tests (Theorems 3–4 hold verbatim — their proofs
    never inspect the match predicate, only the per-step benefit
    processes) and HEEB all apply unchanged. *)

val range : value:int -> band:int -> int * int
(** [range ~value ~band] is the inclusive value interval that joins
    [value], [[value − band, value + band]], clamped to
    [[min_int, max_int]] rather than wrapping.  [band] must be
    non-negative. *)

val match_prob : Ssj_prob.Pmf.t -> value:int -> band:int -> float
(** Probability that a draw from the pmf lands within [band] of [value]. *)

val ecb :
  partner:Ssj_model.Predictor.t -> value:int -> band:int -> horizon:int -> Ecb.t
(** Band analogue of {!Ecb.joining}. *)

val hvalue :
  partner:Ssj_model.Predictor.t -> l:Lfun.t -> value:int -> band:int -> float
(** Band analogue of {!Hvalue.joining}. *)

val heeb :
  ?name:string ->
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  l:Lfun.t ->
  band:int ->
  unit ->
  Policy.join
(** HEEB scored with band-match probabilities (direct computation). *)
