type chain = Absolute of Markov.kernel | Relative of Markov.kernel

type t = {
  name : string;
  time : int;
  last : int option;
  pmf : int -> Ssj_prob.Pmf.t;
  observe : int -> t;
  kernel : chain option;
}

let prob p ~delta v = Ssj_prob.Pmf.prob (p.pmf delta) v
let sample_next p rng = Ssj_prob.Pmf.sample (p.pmf 1) rng

let generate p rng n =
  let path = Array.make (max n 0) 0 in
  let rec go p i =
    if i >= n then p
    else begin
      let v = sample_next p rng in
      path.(i) <- v;
      go (p.observe v) (i + 1)
    end
  in
  let p' = go p 0 in
  (path, p')

let advance p values = Array.fold_left (fun p v -> p.observe v) p values

let make ~name ?kernel ?last ~time ~pmf () =
  let rec build time last =
    {
      name;
      time;
      last;
      kernel;
      pmf = (fun delta -> pmf ~time ~last delta);
      observe = (fun v -> build (time + 1) (Some v));
    }
  in
  build time last
