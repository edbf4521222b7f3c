open Ssj_stream
open Ssj_model
open Ssj_flow

module Obs = Ssj_obs.Obs

(* Warm-start effectiveness of the handle's conditional-law cache: a hit
   reuses the whole per-offset law array from the previous step. *)
let m_decides = Obs.Counter.create "flow_expect.decides"
let m_law_warm_hits = Obs.Counter.create "flow_expect.law_warm_hits"
let m_law_warm_misses = Obs.Counter.create "flow_expect.law_warm_misses"

type plan = { keep : Tuple.t list; expected_benefit : float }

type handle = {
  mutable mcmf : Mcmf.t option;
  (* Conditional-law cache, keyed by the predictor value itself:
     predictors are immutable ([observe] returns a new one), so physical
     equality proves the cached laws are still those of the predictor at
     hand.  Consecutive [decide] calls with an unchanged stream reuse the
     whole array of per-offset laws. *)
  mutable laws_r : (Predictor.t * Ssj_prob.Pmf.t array) option;
  mutable laws_s : (Predictor.t * Ssj_prob.Pmf.t array) option;
}

let handle () = { mcmf = None; laws_r = None; laws_s = None }

type entity =
  | Determined of Tuple.side * int (* side, value *)
  | Undetermined of Tuple.side * int (* side, arrival offset j >= 1 *)

let laws ~cached ~store pred l =
  match cached with
  | Some (p, arr) when p == pred && Array.length arr >= l ->
    Obs.Counter.incr m_law_warm_hits;
    arr
  | _ ->
    Obs.Counter.incr m_law_warm_misses;
    let arr = Array.init l (fun i -> pred.Predictor.pmf (i + 1)) in
    store (pred, arr);
    arr

let decide ?handle:h ~r ~s ~lookahead ~cached ~arrivals ~capacity () =
  if lookahead < 1 then invalid_arg "Flow_expect.decide: lookahead < 1";
  Obs.Counter.incr m_decides;
  let candidates = Array.of_list (cached @ arrivals) in
  let base = Array.length candidates in
  let target = min capacity base in
  if target = 0 then { keep = []; expected_benefit = 0.0 }
  else begin
    let l = lookahead in
    (* Conditional laws of both streams at offsets 1..l, shared by all
       cost computations (and by consecutive steps through the handle). *)
    let laws_r =
      laws
        ~cached:(match h with Some h -> h.laws_r | None -> None)
        ~store:(fun e -> match h with Some h -> h.laws_r <- Some e | None -> ())
        r l
    in
    let laws_s =
      laws
        ~cached:(match h with Some h -> h.laws_s | None -> None)
        ~store:(fun e -> match h with Some h -> h.laws_s <- Some e | None -> ())
        s l
    in
    let law side d =
      match side with Tuple.R -> laws_r.(d - 1) | Tuple.S -> laws_s.(d - 1)
    in
    (* Expected one-step benefit of keeping entity [e] through time t0+d. *)
    let benefit e d =
      match e with
      | Determined (side, v) -> Ssj_prob.Pmf.prob (law (Tuple.partner side) d) v
      | Undetermined (side, j) ->
        Ssj_prob.Pmf.dot (law side j) (law (Tuple.partner side) d)
    in
    let entity_at idx =
      if idx < base then begin
        let t = candidates.(idx) in
        Determined (t.Tuple.side, t.Tuple.value)
      end
      else begin
        let j = ((idx - base) / 2) + 1 in
        let side = if (idx - base) mod 2 = 0 then Tuple.R else Tuple.S in
        Undetermined (side, j)
      end
    in
    let entity_count i = base + (2 * i) in
    (* Node layout: 0 = source, 1 = sink, then slice blocks, then
       connectors (one per slice i >= 1). *)
    let offsets = Array.make l 0 in
    let acc = ref 2 in
    for i = 0 to l - 1 do
      offsets.(i) <- !acc;
      acc := !acc + entity_count i
    done;
    let conn_off = !acc in
    let n_nodes = conn_off + (l - 1) in
    let node i e = offsets.(i) + e in
    let connector i = conn_off + i - 1 in
    let source = 0 and sink = 1 in
    let g =
      match h with
      | Some { mcmf = Some g; _ } ->
        Mcmf.reset g ~n:n_nodes;
        g
      | _ ->
        let g = Mcmf.create n_nodes in
        Option.iter (fun h -> h.mcmf <- Some g) h;
        g
    in
    (* The graph is a DAG: arcs go source → slice 0, slice i → slice i+1,
       old entities of slice i → connector i → new entities of slice i,
       and last slice → sink.  Candidate [e]'s source arc decides whether
       it is kept at [t0]. *)
    let arc src dst cost = Mcmf.add_arc g ~src ~dst ~cap:1 ~cost in
    let add src dst cost = ignore (arc src dst cost) in
    let source_arcs = Array.init base (fun e -> arc source (node 0 e) 0.0) in
    (* Slice 0 contains no connector: arrivals are already determined. *)
    for i = 0 to l - 2 do
      for e = 0 to entity_count i - 1 do
        add (node i e) (node (i + 1) e) (-.benefit (entity_at e) (i + 1))
      done
    done;
    for i = 1 to l - 1 do
      let c = connector i in
      for e = 0 to entity_count (i - 1) - 1 do
        add (node i e) c 0.0
      done;
      let new0 = base + (2 * (i - 1)) in
      add c (node i new0) 0.0;
      add c (node i (new0 + 1)) 0.0
    done;
    for e = 0 to entity_count (l - 1) - 1 do
      add (node (l - 1) e) sink (-.benefit (entity_at e) l)
    done;
    let result = Mcmf.solve g ~source ~sink ~target in
    let keep =
      List.filteri
        (fun e _ -> Mcmf.flow_on g source_arcs.(e) > 0)
        (Array.to_list candidates)
    in
    { keep; expected_benefit = -.result.Mcmf.cost }
  end

let policy ?name ~r ~s ~lookahead () =
  let r_pred = ref r and s_pred = ref s in
  let h = handle () in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "FLOWEXPECT(l=%d)" lookahead
  in
  let select ~now:_ ~cached ~arrivals ~capacity =
    List.iter
      (fun (t : Tuple.t) ->
        match t.Tuple.side with
        | Tuple.R -> r_pred := !r_pred.Predictor.observe t.Tuple.value
        | Tuple.S -> s_pred := !s_pred.Predictor.observe t.Tuple.value)
      arrivals;
    let plan =
      decide ~handle:h ~r:!r_pred ~s:!s_pred ~lookahead ~cached ~arrivals
        ~capacity ()
    in
    plan.keep
  in
  Policy.make_join ~name select
