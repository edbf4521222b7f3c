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

(* x·b when x or the product lies below 2^-1021, by integer arithmetic
   on the subnormal grid: with m = x·2^1074 (an integer-valued double;
   a subnormal x's bits are m) the exact product is m·b·2^-1074.
   Every multiply here has normal operands and a normal result, so none
   takes the hardware's subnormal assist.  When p = fl(m·b) ≥ 2^52 the
   product is normal and p·2^-1074 is its rounding.  Below that the
   product is subnormal, i.e. m·b rounded half-even to an integer; since
   half-integers under 2^52 are doubles and rounding is monotone,
   rounding p instead gives the same integer unless p is a half-integer
   — the one case handed back to the hardware.  Inlined so the kernel's
   floats stay unboxed. *)
let[@inline] tiny_mul x b =
  let m =
    if x < 0x1p-1022 then Int64.to_float (Int64.bits_of_float x)
    else x *. 0x1p537 *. 0x1p537
  in
  let p = m *. b in
  if p >= 0x1p52 then p *. 0x1p-537 *. 0x1p-537
  else begin
    let r = p +. 0x1p52 -. 0x1p52 in
    if Float.abs (r -. p) = 0.5 then x *. b
    else Int64.float_of_bits (Int64.of_float r)
  end

(* Below this x, [x *. b] has a subnormal operand or result: 2^-1021/b,
   capped where [tiny_mul]'s m = x·2^1074 stays far from overflow.  0
   (never) outside the b range [tiny_mul] is exact for. *)
let tiny_below b =
  if b > 0.0 && b <= 2.0 then Float.min (0x1p-1021 /. b) 0x1p-60 else 0.0

module Rolling = struct
  type t = {
    rev : float array;  (* the step's cells, highest value first *)
    rev_below : float array;  (* [tiny_below] of each [rev] cell *)
    below_max : float;
    step_lo : int;
    mutable cur : float array;
    mutable next : float array;
    mutable off : int;  (* the level's first cell in [cur] *)
    mutable len : int;
    mutable lo : int;  (* the value at [cur.(off)] *)
  }
  (* [cur] holds the level with at least [pad = |step| − 1] zero cells
     on both sides, so each output cell reads one full window of
     [|step|] cells with no edge cases.  Indices below [pad] are never
     written and stay zero; the cells a level trims are zeros it wrote
     itself, and the right-hand padding is cleared explicitly, since
     [next] still holds the level before last. *)

  let create step =
    (* [+. 0.0] turns a −0.0 cell into +0.0, which [tiny_mul] takes and
       which leaves every sum and product the cell enters unchanged. *)
    let probs = Array.map (fun p -> p +. 0.0) (Pmf.unsafe_to_dense step) in
    let nb = Array.length probs in
    let pad = nb - 1 in
    let cap = (8 * nb) + (2 * pad) in
    let cur = Array.make cap 0.0 in
    Array.blit probs 0 cur pad nb;
    let rev = Array.init nb (fun t -> probs.(nb - 1 - t)) in
    let rev_below = Array.map tiny_below rev in
    {
      rev;
      rev_below;
      below_max = Array.fold_left Float.max 0.0 rev_below;
      step_lo = Pmf.lo step;
      cur;
      next = Array.make cap 0.0;
      off = pad;
      len = nb;
      lo = Pmf.lo step;
    }

  let grow r need =
    let cap = max need (2 * Array.length r.cur) in
    let cur = Array.make cap 0.0 in
    Array.blit r.cur 0 cur 0 (Array.length r.cur);
    r.cur <- cur;
    r.next <- Array.make cap 0.0

  let advance r =
    let rev = r.rev and below = r.rev_below in
    let pad = Array.length rev - 1 in
    let nout = r.len + pad in
    if nout + (2 * pad) > Array.length r.cur then grow r (nout + (2 * pad));
    let cur = r.cur and next = r.next in
    let base = r.off - pad in
    (* Output cell k (value lo + step_lo + k) adds its products in
       ascending input order from +0.0, as [raw_naive] does; the
       padding adds +0.0.  The Neumaier total of [Pmf.Dense.sum] and
       the plain total the mass assertion reads run alongside.  Cells
       whose window lies between the level's first and last cell at or
       above every [rev_below] skip the tiny-product test (a cell below
       it in between is rare and still exact), four at a time: four
       independent add chains instead of one.  A single loop testing
       every product builds the walk curve ~2-3x slower. *)
    let below_max = r.below_max in
    let a = ref r.off and z = ref (r.off + r.len - 1) in
    while !a <= !z && Array.unsafe_get cur !a < below_max do incr a done;
    while !z >= !a && Array.unsafe_get cur !z < below_max do decr z done;
    let ka = !a - base and kz = !z - pad - base in
    let s = ref 0.0 and c = ref 0.0 and total = ref 0.0 in
    let k = ref 0 in
    while !k < nout do
      let k0 = !k in
      let n =
        if k0 >= ka && k0 + 3 <= kz then begin
          let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
          let i0 = base + k0 in
          for t = 0 to pad do
            let b = Array.unsafe_get rev t in
            let i = i0 + t in
            a0 := !a0 +. (Array.unsafe_get cur i *. b);
            a1 := !a1 +. (Array.unsafe_get cur (i + 1) *. b);
            a2 := !a2 +. (Array.unsafe_get cur (i + 2) *. b);
            a3 := !a3 +. (Array.unsafe_get cur (i + 3) *. b)
          done;
          Array.unsafe_set next (pad + k0) !a0;
          Array.unsafe_set next (pad + k0 + 1) !a1;
          Array.unsafe_set next (pad + k0 + 2) !a2;
          Array.unsafe_set next (pad + k0 + 3) !a3;
          4
        end
        else begin
          let acc = ref 0.0 in
          let i0 = base + k0 in
          for t = 0 to pad do
            let x = Array.unsafe_get cur (i0 + t) in
            let b = Array.unsafe_get rev t in
            acc :=
              !acc
              +. (if x < Array.unsafe_get below t then tiny_mul x b
                  else x *. b)
          done;
          Array.unsafe_set next (pad + k0) !acc;
          1
        end
      in
      for j = pad + k0 to pad + k0 + n - 1 do
        let v = Array.unsafe_get next j in
        if not (Float.is_finite v && v >= 0.0) then
          invalid_arg
            "Convolve.Rolling.advance: weights must be finite and non-negative";
        let u = !s +. v in
        if Float.abs !s >= Float.abs v then c := !c +. ((!s -. u) +. v)
        else c := !c +. ((v -. u) +. !s);
        s := u;
        total := !total +. v
      done;
      k := k0 + n
    done;
    let sum = !s +. !c in
    if sum <= 0.0 then invalid_arg "Convolve.Rolling.advance: zero total mass";
    let first = ref pad and last = ref (pad + nout - 1) in
    (* [Pmf.of_dense]'s 1/sum scale; ×1.0 would leave every cell as it
       is. *)
    let scale = 1.0 /. sum in
    if scale <> 1.0 then begin
      let below = tiny_below scale in
      total := 0.0;
      for i = !first to !last do
        let x = Array.unsafe_get next i in
        let y = if x < below then tiny_mul x scale else x *. scale in
        Array.unsafe_set next i y;
        total := !total +. y
      done
    end;
    assert (Float.abs (!total -. 1.0) < 1e-9);
    while !first < !last && Array.unsafe_get next !first = 0.0 do
      incr first
    done;
    while !last > !first && Array.unsafe_get next !last = 0.0 do
      decr last
    done;
    Array.fill next (pad + nout) pad 0.0;
    r.lo <- r.lo + r.step_lo + (!first - pad);
    r.off <- !first;
    r.len <- !last - !first + 1;
    r.cur <- next;
    r.next <- cur

  let add_into r ~dst ~lo:dlo ~scale =
    let l = max r.lo dlo
    and h = min (r.lo + r.len - 1) (dlo + Array.length dst - 1) in
    let below = tiny_below scale in
    let cur = r.cur and shift = r.off - r.lo in
    for v = l to h do
      let i = v - dlo in
      let x = Array.unsafe_get cur (v + shift) in
      Array.unsafe_set dst i
        (Array.unsafe_get dst i
        +. (if x < below then tiny_mul x scale else scale *. x))
    done
end

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
