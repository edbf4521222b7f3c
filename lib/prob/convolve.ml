(* Raw product accumulation on dense vectors — the naive O(w_a·w_b)
   kernel.  Plain loops over the stored vectors: ascending a, then
   ascending b, zero a-entries skipped, with no closure to box the
   floats. *)
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
  let lo, probs = raw_naive a b in
  Pmf.of_dense ~lo probs

module Table = struct
  type t = { mutable levels : Pmf.t array; mutable filled : int }
  (* levels.(k) is the (k+1)-fold convolution of the step, built for
     k < filled; the slots past [filled] are spare capacity. *)

  let create step = { levels = [| step |]; filled = 1 }
  let step t = t.levels.(0)

  let get t n =
    if n < 1 then invalid_arg "Convolve.Table.get: n < 1";
    let cap = Array.length t.levels in
    if n > cap then begin
      let levels = Array.make (max n (2 * cap)) t.levels.(0) in
      Array.blit t.levels 0 levels 0 t.filled;
      t.levels <- levels
    end;
    while t.filled < n do
      let p = pair t.levels.(t.filled - 1) t.levels.(0) in
      (* [Pmf.of_dense]'s compensated normalisation keeps mass from
         drifting across deep ladders; the debug assertion pins it. *)
      assert (Float.abs (Pmf.total p -. 1.0) < 1e-9);
      t.levels.(t.filled) <- p;
      t.filled <- t.filled + 1
    done;
    t.levels.(n - 1)
end
