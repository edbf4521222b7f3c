open Ssj_stream
open Ssj_model
open Ssj_flow
module Pmf = Ssj_prob.Pmf

module Obs = Ssj_obs.Obs

(* Warm-start effectiveness of the handle's benefit memo: a hit serves an
   undetermined tuple's expected benefit without a [Pmf.dot]. *)
let m_decides = Obs.Counter.create "flow_expect.decides"
let m_law_warm_hits = Obs.Counter.create "flow_expect.law_warm_hits"
let m_law_warm_misses = Obs.Counter.create "flow_expect.law_warm_misses"

type plan = { keep : Tuple.t list; expected_benefit : float }

(* The time-expanded graph of one [(base, l)]: its topology depends on
   nothing else, so a step only rewrites the costs and re-solves.  Node
   layout: 0 = source, 1 = sink, then slice blocks, then connectors (one
   per slice i >= 1). *)
type graph = {
  g : Mcmf.t;
  base : int;
  l : int;
  source_arcs : Mcmf.arc array; (* candidate e's arc: kept at t0 iff used *)
  benefit_arcs : int array;
      (* [benefit_arcs.(d - 1) + e]: the arc charging entity [e] its
         expected benefit at t0+d *)
  costs : float array; (* per arc; only the benefit arcs are nonzero *)
}

let source = 0
let sink = 1

(* Arcs are added in the order that decides the solver's tie-breaking;
   every cost starts at 0 and is written per step.  A rebuild takes over
   the previous graph's arrays. *)
let build ?prev ~base ~l () =
  let entity_count i = base + (2 * i) in
  let offsets = Array.make l 0 in
  let acc = ref 2 in
  for i = 0 to l - 1 do
    offsets.(i) <- !acc;
    acc := !acc + entity_count i
  done;
  let conn_off = !acc in
  let node i e = offsets.(i) + e in
  let connector i = conn_off + i - 1 in
  let g = Mcmf.create ?reuse:(Option.map (fun p -> p.g) prev) (conn_off + (l - 1)) in
  let arcs = ref 0 in
  let arc src dst =
    incr arcs;
    Mcmf.add_arc g ~src ~dst ~cap:1 ~cost:0.0
  in
  let add src dst = ignore (arc src dst) in
  (* The graph is a DAG: arcs go source → slice 0, slice i → slice i+1,
     old entities of slice i → connector i → new entities of slice i,
     and last slice → sink. *)
  let source_arcs = Array.init base (fun e -> arc source (node 0 e)) in
  let benefit_arcs = Array.make l 0 in
  (* Slice 0 contains no connector: arrivals are already determined. *)
  for i = 0 to l - 2 do
    benefit_arcs.(i) <- !arcs;
    for e = 0 to entity_count i - 1 do
      add (node i e) (node (i + 1) e)
    done
  done;
  for i = 1 to l - 1 do
    let c = connector i in
    for e = 0 to entity_count (i - 1) - 1 do
      add (node i e) c
    done;
    let new0 = base + (2 * (i - 1)) in
    add c (node i new0);
    add c (node i (new0 + 1))
  done;
  benefit_arcs.(l - 1) <- !arcs;
  for e = 0 to entity_count (l - 1) - 1 do
    add (node (l - 1) e) sink
  done;
  let costs =
    let have = match prev with Some p -> p.costs | None -> [||] in
    if Array.length have >= !arcs then begin
      Array.fill have 0 !arcs 0.0;
      have
    end
    else Array.make (max !arcs (2 * Array.length have)) 0.0
  in
  { g; base; l; source_arcs; benefit_arcs; costs }

type handle = {
  mutable graph : graph option; (* the last (base, l)'s, rebuilt on change *)
  (* Per-step scratch: the laws of both streams at offsets 1..l. *)
  mutable laws_r : Pmf.t array;
  mutable laws_s : Pmf.t array;
  (* Exact memo of Pr{X = Y} for an R law X and an S law Y, keyed by
     the physical pair of their probability vectors.  [Pmf.dot] walks
     the two vectors at index offset [lo X - lo Y] and nothing else, so
     that offset keys the value bit for bit; a shift ([Pmf.shift], the
     trend and random-walk predictors' laws) shares the vector.  A cell
     holds the memo of one vector pair and re-seeds when the pair in it
     changes.  A side whose laws share one vector at every offset (trend
     laws) keys its cells by that vector alone, and a side with a vector
     per offset (a random walk's, kept across steps) by the offset, so
     trend laws use one cell and a random walk's offset pairs theirs.
     In a cell, slot [lo X - lo Y + |X| - 1] covers the offsets where the
     supports overlap; elsewhere the dot is 0. *)
  mutable cell_r : float array array;
  mutable cell_s : float array array;
  mutable cell_memo : float array array;
  mutable cell_known : Bytes.t array;
}

let handle () =
  {
    graph = None;
    laws_r = [||];
    laws_s = [||];
    cell_r = [||];
    cell_s = [||];
    cell_memo = [||];
    cell_known = [||];
  }

(* Writes [-. Pmf.dot x y] into [costs.(i)] for an R law [x] and an S
   law [y], through memo cell [c].  The dot is symmetric bit for bit (the
   same overlap, ascending, with commutative products), so an S tuple's
   benefit [Pmf.dot y x] is served by the same entry.  The value goes
   straight into the array: a float returned from a call is boxed. *)
let coincide_cost h c x y costs i =
  let px = Pmf.unsafe_to_dense x and py = Pmf.unsafe_to_dense y in
  let nx = Array.length px and ny = Array.length py in
  let slot = Pmf.lo x - Pmf.lo y + nx - 1 in
  if slot < 0 || slot > nx + ny - 2 then begin
    Obs.Counter.incr m_law_warm_hits;
    costs.(i) <- -0.0
  end
  else begin
    if not (px == h.cell_r.(c) && py == h.cell_s.(c)) then begin
      h.cell_r.(c) <- px;
      h.cell_s.(c) <- py;
      if Array.length h.cell_memo.(c) < nx + ny then begin
        h.cell_memo.(c) <- Array.make (nx + ny) 0.0;
        h.cell_known.(c) <- Bytes.make (nx + ny) '\000'
      end
      else Bytes.fill h.cell_known.(c) 0 (nx + ny) '\000'
    end;
    let memo = h.cell_memo.(c) and known = h.cell_known.(c) in
    if Bytes.unsafe_get known slot = '\000' then begin
      Obs.Counter.incr m_law_warm_misses;
      Array.unsafe_set memo slot (Pmf.dot x y);
      Bytes.unsafe_set known slot '\001'
    end
    else Obs.Counter.incr m_law_warm_hits;
    costs.(i) <- -.Array.unsafe_get memo slot
  end

(* Do the first [l] laws share one probability vector? *)
let shared (laws : Pmf.t array) l =
  let v = Pmf.unsafe_to_dense laws.(0) in
  let i = ref 1 in
  while !i < l && Pmf.unsafe_to_dense laws.(!i) == v do
    incr i
  done;
  !i >= l

let no_law = Pmf.point 0

(* [Pmf.prob p v], reading the vector in place. *)
let[@inline] prob probs lo v =
  let i = v - lo in
  if i < 0 || i >= Array.length probs then 0.0 else Array.unsafe_get probs i

(* The graph for [(base, l)] with this step's costs written in: the
   candidates are [uids/values.(0 .. base-1)].  Each arc into slice
   d (or into the sink, d = l) costs the negated expected one-step
   benefit at t0+d of the entity it carries: a determined candidate of
   side [σ] and value [v] matches with Pr{X^{partner σ}_{t0+d} = v}; the
   undetermined arrival of side [σ] at t0+j with Pr{X^σ_{t0+j} =
   X^{partner σ}_{t0+d}}. *)
let prepare h ~r ~s ~l ~base ~uids ~values =
  let gr =
    match h.graph with
    | Some gr when gr.base = base && gr.l = l -> gr
    | prev ->
      let gr = build ?prev ~base ~l () in
      h.graph <- Some gr;
      gr
  in
  if Array.length h.laws_r < l then begin
    h.laws_r <- Array.make l no_law;
    h.laws_s <- Array.make l no_law
  end;
  let laws_r = h.laws_r and laws_s = h.laws_s in
  for i = 0 to l - 1 do
    laws_r.(i) <- r.Predictor.pmf (i + 1)
  done;
  for i = 0 to l - 1 do
    laws_s.(i) <- s.Predictor.pmf (i + 1)
  done;
  (* Cell of R offset [j] and S offset [d]: [rk * j + (sk * d)]. *)
  let sk = if shared laws_s l then 0 else 1 in
  let rk = if shared laws_r l then 0 else (sk * (l - 1)) + 1 in
  let cells = (rk * (l - 1)) + (sk * (l - 1)) + 1 in
  if Array.length h.cell_r < cells then begin
    h.cell_r <- Array.make cells [||];
    h.cell_s <- Array.make cells [||];
    h.cell_memo <- Array.make cells [||];
    h.cell_known <- Array.make cells Bytes.empty
  end;
  let costs = gr.costs in
  for d = 1 to l do
    let first = gr.benefit_arcs.(d - 1) in
    let law_r = laws_r.(d - 1) and law_s = laws_s.(d - 1) in
    let probs_r = Pmf.unsafe_to_dense law_r and lo_r = Pmf.lo law_r in
    let probs_s = Pmf.unsafe_to_dense law_s and lo_s = Pmf.lo law_s in
    for e = 0 to base - 1 do
      let v = Array.unsafe_get values e in
      (* uid bit 0 is the side: an R candidate (0) meets the S stream. *)
      let b =
        if Array.unsafe_get uids e land 1 = 0 then prob probs_s lo_s v
        else prob probs_r lo_r v
      in
      costs.(first + e) <- -.b
    done;
    for j = 1 to d - 1 do
      let e = first + base + (2 * (j - 1)) in
      coincide_cost h
        ((rk * (j - 1)) + (sk * (d - 1)))
        laws_r.(j - 1) law_s costs e;
      coincide_cost h
        ((rk * (d - 1)) + (sk * (j - 1)))
        law_r laws_s.(j - 1) costs (e + 1)
    done
  done;
  Mcmf.set_costs gr.g costs;
  gr

let decide ?handle:h ~r ~s ~lookahead ~cached ~arrivals ~capacity () =
  if lookahead < 1 then invalid_arg "Flow_expect.decide: lookahead < 1";
  Obs.Counter.incr m_decides;
  let candidates = Array.of_list (cached @ arrivals) in
  let base = Array.length candidates in
  let target = min capacity base in
  if target <= 0 then { keep = []; expected_benefit = 0.0 }
  else begin
    let h = match h with Some h -> h | None -> handle () in
    let uids = Array.map (fun (t : Tuple.t) -> t.uid) candidates in
    let values = Array.map (fun (t : Tuple.t) -> t.value) candidates in
    let gr = prepare h ~r ~s ~l:lookahead ~base ~uids ~values in
    let result = Mcmf.solve gr.g ~source ~sink ~target in
    let keep =
      List.filteri
        (fun e _ -> Mcmf.flow_on gr.g gr.source_arcs.(e) > 0)
        (Array.to_list candidates)
    in
    { keep; expected_benefit = -.result.Mcmf.cost }
  end

(* Candidates that carry flow score above the rest, each group in
   candidate order; see the interface. *)
let policy ?name ~r ~s ~lookahead () =
  if lookahead < 1 then invalid_arg "Flow_expect.policy: lookahead < 1";
  let r_pred = ref r and s_pred = ref s in
  let h = handle () in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "FLOWEXPECT(l=%d)" lookahead
  in
  let observe ~(r : Tuple.t) ~(s : Tuple.t) =
    r_pred := !r_pred.Predictor.observe r.value;
    s_pred := !s_pred.Predictor.observe s.value;
    Obs.Counter.incr m_decides
  in
  Policy.scored ~name ~observe (fun ~now ~capacity ~n ~uids ~values ~scores ->
      let gr = prepare h ~r:!r_pred ~s:!s_pred ~l:lookahead ~base:n ~uids ~values in
      let target = min capacity n in
      let result = Mcmf.solve gr.g ~source ~sink ~target in
      (* The shared selection keeps exactly [target] candidates, so a
         solve that stopped short would fill the gap with dropped ones. *)
      if result.Mcmf.flow <> target then
        invalid_arg
          (Printf.sprintf "Flow_expect.policy: %s carried %d of %d units at step %d"
             name result.Mcmf.flow target now);
      for e = 0 to n - 1 do
        scores.(e) <-
          (if Mcmf.flow_on gr.g gr.source_arcs.(e) > 0 then float_of_int (n - e)
           else -.float_of_int (e + 1))
      done)
