(** C kernel of the backward first-passage DP.

    [sweep ~rows ~w ~n ~slot ~masked ~u ~active ~nact] advances the
    first [nact] targets listed in [active] by one DP step over a dense
    banded kernel ({!Ssj_model.Markov.Dense} layout):

    [u.(t·n + x) ← Σ_j rows.(x·w + j) · masked.(t·n + slot.(x) + j)]

    Preconditions (checked in O(1) where possible): [rows] holds [n]
    rows of uniform width [w]; every [slot.(x)] lies in [0, n − w];
    [masked] and [u] are flat [nt × n] matrices.  Per-target results do
    not depend on the batch composition or on the order of [active] —
    the determinism contract the precompute tests pin down.

    Each sum has one order: sixteen lanes [s_i += rows.(x·w + j + i) ·
    masked.(…)] over the 16-wide blocks of [j], the pairwise tree
    [((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))] plus the same over
    [s8..s15], then the [w mod 16] tail products one at a time, with
    no fused multiply-add.  Every build returns the same bits; the
    precompute tests compare the sweep bit for bit with an OCaml copy
    of this order. *)

val sweep :
  rows:float array ->
  w:int ->
  n:int ->
  slot:int array ->
  masked:float array ->
  u:float array ->
  active:int array ->
  nact:int ->
  unit
