open Ssj_model

type t = float array

let joining ~partner ~value ~horizon =
  if horizon < 1 then invalid_arg "Ecb.joining: horizon < 1";
  let b = Array.make horizon 0.0 in
  let acc = ref 0.0 in
  for d = 1 to horizon do
    acc := !acc +. Predictor.prob partner ~delta:d value;
    b.(d - 1) <- !acc
  done;
  b

let caching_independent ~reference ~value ~horizon =
  if horizon < 1 then invalid_arg "Ecb.caching_independent: horizon < 1";
  let b = Array.make horizon 0.0 in
  let survive = ref 1.0 in
  (* survive = Pr{not referenced during [t0+1, t0+d]} *)
  for d = 1 to horizon do
    survive := !survive *. (1.0 -. Predictor.prob reference ~delta:d value);
    b.(d - 1) <- 1.0 -. !survive
  done;
  b

let of_first_reference first =
  let b = Array.make (Array.length first) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      acc := !acc +. p;
      b.(i) <- !acc)
    first;
  b

let caching_markov ~kernel ~start ~value ~horizon =
  if horizon < 1 then invalid_arg "Ecb.caching_markov: horizon < 1";
  of_first_reference
    (Markov.first_passage (Markov.Dense.of_kernel kernel) ~start ~target:value
       ~horizon)

let sliding b ~remaining =
  let n = Array.length b in
  if remaining <= 0 then Array.make n 0.0
  else begin
    let cap = b.(min remaining n - 1) in
    Array.map (fun v -> min v cap) b
  end

let reference_stream_tuple ~horizon =
  if horizon < 1 then invalid_arg "Ecb.reference_stream_tuple: horizon < 1";
  Array.make horizon 0.0
