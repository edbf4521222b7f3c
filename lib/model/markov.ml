open Ssj_prob

type kernel = { lo : int; hi : int; row : int -> Pmf.t }

let of_step ~step ~drift ~lo ~hi =
  if lo > hi then invalid_arg "Markov.of_step: lo > hi";
  { lo; hi; row = (fun x -> Pmf.shift step (x + drift)) }

let of_ar1 ~phi0 ~phi1 ~sigma ~lo ~hi =
  if lo > hi then invalid_arg "Markov.of_ar1: lo > hi";
  let row x =
    let mu = phi0 +. (phi1 *. float_of_int x) in
    (* Support: mean ± 5 sigma, clipped to a sane integer window. *)
    let spread = int_of_float (Float.ceil (5.0 *. sigma)) + 1 in
    let center = int_of_float (Float.round mu) in
    Dist.discretized_normal_mu ~mu ~sigma ~lo:(center - spread)
      ~hi:(center + spread)
  in
  { lo; hi; row }

module Dense = struct
  type t = {
    lo : int;
    n : int;
    w : int;
    rows : float array; (* n rows of uniform width w, zero-padded *)
    slot : int array; (* window index covered by column 0 of each row *)
  }

  (* Rows are clipped to the window and right-padded with zeros to the
     widest clipped support, so every row is a contiguous w-wide band
     anchored at slot.(i) ∈ [0, n − w].  Padding is exact: a padded cell
     contributes +0.0 to a non-negative accumulator.  Building this once
     replaces the per-step, per-state [row] pmf reconstruction that
     dominated the forward and backward DPs (for AR(1) kernels each
     [row] call discretises a fresh normal). *)
  let of_kernel k =
    let n = k.hi - k.lo + 1 in
    let pmfs = Array.init n (fun i -> k.row (k.lo + i)) in
    let w = ref 1 in
    Array.iter
      (fun pmf ->
        let ylo = max (Pmf.lo pmf) k.lo and yhi = min (Pmf.hi pmf) k.hi in
        if yhi >= ylo then w := max !w (yhi - ylo + 1))
      pmfs;
    let w = !w in
    let rows = Array.make (n * w) 0.0 in
    let slot = Array.make n 0 in
    Array.iteri
      (fun i pmf ->
        let ylo = max (Pmf.lo pmf) k.lo and yhi = min (Pmf.hi pmf) k.hi in
        if yhi >= ylo then begin
          let rlo = ylo - k.lo in
          (* Clamp so the whole band stays inside the window; the row
             still starts at its true support (rlo − s ≥ 0) and ends
             within the band (yhi ≤ k.hi ⇒ rhi − s ≤ w − 1). *)
          let s = min rlo (n - w) in
          slot.(i) <- s;
          for j = 0 to yhi - ylo do
            rows.((i * w) + (rlo - s) + j) <- Pmf.prob pmf (ylo + j)
          done
        end)
      pmfs;
    { lo = k.lo; n; w; rows; slot }

  (* dst ← srcᵀ·K over the band [a0 .. b0] of cells [src] may hold mass
     in; returns [dst]'s band, which holds [a0 .. b0].  Every cell outside
     a buffer's band is 0 (bands only grow, and a step writes [dst] only
     within its band), so the band's rows in ascending order make the
     same sums as a sweep of the whole window: the same source-major
     accumulation order as iterating each row pmf, bit for bit, at the
     cost of the chain's reach rather than the window's width. *)
  let step t (a0, b0) ~src ~dst =
    let a = ref a0 and b = ref b0 in
    for i = a0 to b0 do
      let s = Array.unsafe_get t.slot i in
      if s < !a then a := s;
      if s + t.w - 1 > !b then b := s + t.w - 1
    done;
    Array.fill dst !a (!b - !a + 1) 0.0;
    for i = a0 to b0 do
      let p = Array.unsafe_get src i in
      if p > 0.0 then begin
        let base = i * t.w and s = Array.unsafe_get t.slot i in
        for j = 0 to t.w - 1 do
          let d = s + j in
          Array.unsafe_set dst d
            (Array.unsafe_get dst d +. (p *. Array.unsafe_get t.rows (base + j)))
        done
      end
    done;
    (!a, !b)
end

let first_passage (dk : Dense.t) ~start ~target ~horizon =
  if start < dk.lo || start >= dk.lo + dk.n then
    invalid_arg "Markov.first_passage: start outside window";
  if horizon < 0 then invalid_arg "Markov.first_passage: negative horizon";
  let result = Array.make horizon 0.0 in
  let dist = ref (Array.make dk.n 0.0) in
  let next = ref (Array.make dk.n 0.0) in
  !dist.(start - dk.lo) <- 1.0;
  let band = ref (start - dk.lo, start - dk.lo) in
  for d = 1 to horizon do
    band := Dense.step dk !band ~src:!dist ~dst:!next;
    let tmp = !dist in
    dist := !next;
    next := tmp;
    if target >= dk.lo && target < dk.lo + dk.n then begin
      let j = target - dk.lo in
      result.(d - 1) <- !dist.(j);
      (* Taboo: remove mass that has hit the target. *)
      !dist.(j) <- 0.0
    end
  done;
  result

let marginal k ~start ~horizon =
  if start < k.lo || start > k.hi then
    invalid_arg "Markov.marginal: start outside window";
  if horizon < 1 then invalid_arg "Markov.marginal: horizon < 1";
  let dk = Dense.of_kernel k in
  let n = dk.Dense.n in
  let dist = ref (Array.make n 0.0) in
  let next = ref (Array.make n 0.0) in
  !dist.(start - k.lo) <- 1.0;
  let band = ref (start - k.lo, start - k.lo) in
  Array.init horizon (fun _ ->
      band := Dense.step dk !band ~src:!dist ~dst:!next;
      let tmp = !dist in
      dist := !next;
      next := tmp;
      Array.copy !dist)
