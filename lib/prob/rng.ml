type t = Random.State.t

let create seed = Random.State.make [| seed; 0x5f3759df; seed lxor 0x9e3779b9 |]

let split rng =
  let a = Random.State.bits rng in
  let b = Random.State.bits rng in
  Random.State.make [| a; b; a lxor (b lsl 1) |]

let int rng n =
  assert (n > 0);
  Random.State.int rng n

let float rng x = Random.State.float rng x

(* [Random.State.float rng 1.0] spelled out (the stdlib's [rawfloat]):
   the same state advance and the same bits, but the result goes
   straight into the array instead of through a boxed return. *)
let rec unit_float_into rng dst i =
  let b = Int64.shift_right_logical (Random.State.bits64 rng) 11 in
  if b <> 0L then dst.(i) <- Int64.to_float b *. 0x1.p-53
  else unit_float_into rng dst i

let bool rng = Random.State.bool rng
let bernoulli rng p = Random.State.float rng 1.0 < p

let gaussian rng ~mu ~sigma =
  (* Box–Muller; guard against log 0. *)
  let u1 = max 1e-300 (Random.State.float rng 1.0) in
  let u2 = Random.State.float rng 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick rng a =
  assert (Array.length a > 0);
  a.(Random.State.int rng (Array.length a))
