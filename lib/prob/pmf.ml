type t = {
  lo : int;
  probs : float array; (* probs.(i) = Pr{X = lo + i}; normalised *)
}

type error = Empty_support | Non_finite | Zero_mass | Negative

let error_to_string = function
  | Empty_support -> "empty support"
  | Non_finite -> "non-finite weight"
  | Zero_mass -> "zero total mass"
  | Negative -> "negative weight"

(* First defect in scan order; [Zero_mass] is detected later, once a
   total exists. *)
let classify_weights probs =
  let n = Array.length probs in
  if n = 0 then Some Empty_support
  else begin
    (* A plain loop: a closure over the weights would box every float. *)
    let i = ref 0 in
    while
      !i < n
      &&
      let w = Array.unsafe_get probs !i in
      Float.is_finite w && w >= 0.0
    do
      incr i
    done;
    if !i = n then None
    else if Float.is_finite probs.(!i) then Some Negative
    else Some Non_finite
  end

(* The raising constructors keep their historical messages (asserted by
   the test suite): weight defects report as [Pmf.create] regardless of
   entry point, zero mass names the constructor. *)
let check_weights probs =
  match classify_weights probs with
  | Some Empty_support -> invalid_arg "Pmf.create: empty support"
  | Some (Non_finite | Negative) ->
    invalid_arg "Pmf.create: weights must be finite and non-negative"
  | Some Zero_mass | None -> ()

let create ~lo probs =
  check_weights probs;
  let sum = Array.fold_left ( +. ) 0.0 probs in
  if sum <= 0.0 then invalid_arg "Pmf.create: zero total mass";
  { lo; probs = Array.map (fun w -> w /. sum) probs }

module Dense = struct
  let sum a =
    (* Neumaier-compensated: the running error term absorbs whichever of
       accumulator and addend loses low bits at each step. *)
    let s = ref 0.0 and c = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      let x = Array.unsafe_get a i in
      let t = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. ((!s -. t) +. x)
      else c := !c +. ((x -. t) +. !s);
      s := t
    done;
    !s +. !c

  let scale a k =
    for i = 0 to Array.length a - 1 do
      Array.unsafe_set a i (Array.unsafe_get a i *. k)
    done
end

let of_dense ~lo probs =
  check_weights probs;
  let sum = Dense.sum probs in
  if sum <= 0.0 then invalid_arg "Pmf.of_dense: zero total mass";
  Dense.scale probs (1.0 /. sum);
  { lo; probs }

let validate ~lo probs =
  match classify_weights probs with
  | Some e -> Error e
  | None ->
    let probs = Array.copy probs in
    let sum = Dense.sum probs in
    if sum <= 0.0 then Error Zero_mass
    else begin
      Dense.scale probs (1.0 /. sum);
      Ok { lo; probs }
    end

let of_assoc pairs =
  match pairs with
  | [] -> invalid_arg "Pmf.of_assoc: empty"
  | (v0, _) :: _ ->
    let lo = List.fold_left (fun acc (v, _) -> min acc v) v0 pairs in
    let hi = List.fold_left (fun acc (v, _) -> max acc v) v0 pairs in
    let probs = Array.make (hi - lo + 1) 0.0 in
    List.iter (fun (v, w) -> probs.(v - lo) <- probs.(v - lo) +. w) pairs;
    create ~lo probs

let point v = { lo = v; probs = [| 1.0 |] }
let lo t = t.lo
let hi t = t.lo + Array.length t.probs - 1

let prob t v =
  let i = v - t.lo in
  if i < 0 || i >= Array.length t.probs then 0.0 else t.probs.(i)

let total t =
  let acc = ref 0.0 in
  for i = 0 to Array.length t.probs - 1 do
    acc := !acc +. Array.unsafe_get t.probs i
  done;
  !acc

let mean t =
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. (float_of_int (t.lo + i) *. p)) t.probs;
  !acc

let variance t =
  let m = mean t in
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      let d = float_of_int (t.lo + i) -. m in
      acc := !acc +. (d *. d *. p))
    t.probs;
  !acc

let stddev t = sqrt (variance t)

let cdf t v =
  if v < t.lo then 0.0
  else begin
    let stop = min (v - t.lo) (Array.length t.probs - 1) in
    let acc = ref 0.0 in
    for i = 0 to stop do
      acc := !acc +. t.probs.(i)
    done;
    !acc
  end

let interval_prob t ~lo:l ~hi:h =
  if l > h then 0.0
  else begin
    let l = max l t.lo and h = min h (hi t) in
    let acc = ref 0.0 in
    for v = l to h do
      acc := !acc +. t.probs.(v - t.lo)
    done;
    !acc
  end

let shift t d = { t with lo = t.lo + d }

let negate t =
  let n = Array.length t.probs in
  let probs = Array.init n (fun i -> t.probs.(n - 1 - i)) in
  { lo = -(t.lo + n - 1); probs }

let map_outcomes t f =
  let pairs = ref [] in
  Array.iteri
    (fun i p -> if p > 0.0 then pairs := (f (t.lo + i), p) :: !pairs)
    t.probs;
  of_assoc !pairs

let sample t rng =
  let u = Rng.float rng 1.0 in
  let n = Array.length t.probs in
  let rec walk i acc =
    if i >= n - 1 then t.lo + n - 1
    else
      let acc = acc +. t.probs.(i) in
      if u < acc then t.lo + i else walk (i + 1) acc
  in
  walk 0 0.0

let fold t ~init ~f =
  let acc = ref init in
  Array.iteri (fun i p -> acc := f !acc (t.lo + i) p) t.probs;
  !acc

let iter t f = Array.iteri (fun i p -> f (t.lo + i) p) t.probs

let unsafe_to_dense t = t.probs

let trim_zeros t =
  let n = Array.length t.probs in
  let first = ref 0 and last = ref (n - 1) in
  while !first < !last && Array.unsafe_get t.probs !first = 0.0 do
    incr first
  done;
  while !last > !first && Array.unsafe_get t.probs !last = 0.0 do
    decr last
  done;
  if !first = 0 && !last = n - 1 then t
  else
    { lo = t.lo + !first; probs = Array.sub t.probs !first (!last - !first + 1) }

let truncate t ~lo:l ~hi:h =
  let l = max l t.lo and h = min h (hi t) in
  if l > h then None
  else begin
    let probs = Array.sub t.probs (l - t.lo) (h - l + 1) in
    let sum = Array.fold_left ( +. ) 0.0 probs in
    if sum <= 0.0 then None else Some (create ~lo:l probs)
  end

let mix weighted =
  let pairs =
    List.concat_map
      (fun (w, t) ->
        if w < 0.0 then invalid_arg "Pmf.mix: negative weight";
        fold t ~init:[] ~f:(fun acc v p -> (v, w *. p) :: acc))
      weighted
  in
  of_assoc pairs

let dot a b =
  (* Direct overlap loop; same ascending accumulation order as folding
     either support (out-of-overlap terms add exactly +0.0). *)
  let l = max a.lo b.lo and h = min (hi a) (hi b) in
  let acc = ref 0.0 in
  for v = l to h do
    acc :=
      !acc
      +. (Array.unsafe_get a.probs (v - a.lo)
          *. Array.unsafe_get b.probs (v - b.lo))
  done;
  !acc

let add_into t ~dst ~lo:dlo ~scale =
  let l = max t.lo dlo and h = min (hi t) (dlo + Array.length dst - 1) in
  for v = l to h do
    let i = v - dlo in
    Array.unsafe_set dst i
      (Array.unsafe_get dst i +. (scale *. Array.unsafe_get t.probs (v - t.lo)))
  done

let equal ?(eps = 1e-9) a b =
  let l = min a.lo b.lo and h = max (hi a) (hi b) in
  let rec check v =
    if v > h then true
    else if Float.abs (prob a v -. prob b v) > eps then false
    else check (v + 1)
  in
  check l

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>pmf{";
  iter t (fun v p -> if p > 1e-12 then Format.fprintf ppf "@ %d:%.4g" v p);
  Format.fprintf ppf "@ }@]"
