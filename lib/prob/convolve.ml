(* Raw product accumulation on dense vectors — the naive O(w_a·w_b)
   kernel, also serving as the QCheck oracle for the FFT path.  Plain
   loops over the stored vectors: ascending a, then ascending b, zero
   a-entries skipped, with no closure to box the floats. *)
let raw_naive a b =
  let pa = Pmf.unsafe_to_dense a and pb = Pmf.unsafe_to_dense b in
  let na = Array.length pa and nb = Array.length pb in
  let probs = Array.make (na + nb - 1) 0.0 in
  for i = 0 to na - 1 do
    let x = Array.unsafe_get pa i in
    if x > 0.0 then
      for j = 0 to nb - 1 do
        let k = i + j in
        Array.unsafe_set probs k
          (Array.unsafe_get probs k +. (x *. Array.unsafe_get pb j))
      done
  done;
  (Pmf.lo a + Pmf.lo b, probs)

let pair_naive a b =
  let lo, probs = raw_naive a b in
  Pmf.create ~lo probs

let pair a b =
  let la = Pmf.lo a and lb = Pmf.lo b in
  let na = Pmf.hi a - la + 1 and nb = Pmf.hi b - lb + 1 in
  if Fftconv.should_use ~na ~nb then
    Pmf.of_dense ~lo:(la + lb) (Fftconv.convolve (Pmf.to_dense a) (Pmf.to_dense b))
  else begin
    let lo, probs = raw_naive a b in
    Pmf.of_dense ~lo probs
  end

let nfold p n =
  if n < 1 then invalid_arg "Convolve.nfold: n < 1";
  (* Exponentiation by doubling: O(log n) pairs, each FFT-backed once the
     supports grow wide — versus n−1 ever-wider naive pairs. *)
  let rec go n =
    if n = 1 then p
    else begin
      let h = go (n / 2) in
      let h2 = pair h h in
      if n land 1 = 0 then h2 else pair h2 p
    end
  in
  go n

module Table = struct
  type t = { step : Pmf.t; levels : (int, Pmf.t) Hashtbl.t }
  (* levels maps n to the n-fold convolution of step.  The memo is sparse:
     a sequential scan (the predictors' access pattern) fills n from n−1
     and the step; a cold jump to a deep level is built by halving —
     O(log n) pairs, FFT-backed once wide — without materialising the
     intermediate levels. *)

  let create step =
    let levels = Hashtbl.create 64 in
    Hashtbl.replace levels 1 step;
    { step; levels }

  let step t = t.step

  (* Every stored level went through [Pmf.of_dense]'s compensated
     normalisation, so mass cannot drift across deep ladders; the debug
     assertion pins it. *)
  let check p =
    assert (Float.abs (Pmf.total p -. 1.0) < 1e-9);
    p

  let rec get t n =
    if n < 1 then invalid_arg "Convolve.Table.get: n < 1";
    match Hashtbl.find_opt t.levels n with
    | Some p -> p
    | None ->
      let p =
        match Hashtbl.find_opt t.levels (n - 1) with
        | Some prev -> pair prev t.step
        | None ->
          let h = get t (n / 2) in
          pair h (get t (n - (n / 2)))
      in
      let p = check p in
      Hashtbl.replace t.levels n p;
      p
end
