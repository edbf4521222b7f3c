type arc = int

module Obs = Ssj_obs.Obs

(* Observability: solver activity and topology reuse.  [mcmf.graph_reuse]
   counts re-solves of a frozen topology against [mcmf.graph_create]:
   the direct measure of how often FlowExpect's handle skips the graph
   build. *)
let m_graph_create = Obs.Counter.create "mcmf.graph_create"
let m_graph_reuse = Obs.Counter.create "mcmf.graph_reuse"
let m_solves = Obs.Counter.create "mcmf.solves"
let m_dijkstra_calls = Obs.Counter.create "mcmf.dijkstra_calls"
let m_dijkstra_pops = Obs.Counter.create "mcmf.dijkstra_pops"
let m_augmentations = Obs.Counter.create "mcmf.augmentations"

type t = {
  n : int;
  mutable m : int; (* number of user arcs; internal arcs = 2 * m *)
  mutable to_ : int array; (* indexed by internal arc id *)
  mutable cap : int array;
  mutable cost : float array;
  (* Everything below is built when the first solve freezes the topology
     and only read or overwritten afterwards.  Arrays may be longer than
     needed: [create ~reuse] hands a graph's arrays on to the next. *)
  mutable frozen : bool;
  (* CSR adjacency (arcs sorted by source node): adj_arc.(adj_start.(v)
     .. adj_start.(v+1)-1) are the internal arcs out of v. *)
  mutable adj_start : int array;
  mutable adj_arc : int array;
  mutable order : int array; (* topological order, positive-capacity arcs *)
  mutable pot : float array;
  mutable dist : float array;
  mutable pred_arc : int array;
  (* The nodes the last Dijkstra reached, in the order it reached them:
     exactly those with a finite [dist], so the next search resets and
     the potential update visits only these. *)
  mutable touched : int array;
  mutable touched_n : int;
  (* Dijkstra frontier: a binary min-heap of (priority, node) pairs as two
     parallel arrays, so priorities stay unboxed.  No decrease-key: a
     shorter distance pushes a duplicate and the stale entry is skipped
     when popped. *)
  mutable heap_prio : float array;
  mutable heap_node : int array;
}

let create ?reuse n =
  Obs.Counter.incr m_graph_create;
  match reuse with
  | Some old -> { old with n; m = 0; frozen = false; touched_n = 0 }
  | None ->
    {
      n;
      m = 0;
      to_ = [||];
      cap = [||];
      cost = [||];
      frozen = false;
      adj_start = [||];
      adj_arc = [||];
      order = [||];
      pot = [||];
      dist = [||];
      pred_arc = [||];
      touched = [||];
      touched_n = 0;
      heap_prio = [||];
      heap_node = [||];
    }

let ensure_capacity g =
  let need = 2 * (g.m + 1) in
  let have = Array.length g.to_ in
  if need > have then begin
    let cap' = max 32 (2 * have) in
    let grow a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    g.to_ <- grow g.to_ 0;
    g.cap <- grow g.cap 0;
    g.cost <- grow g.cost 0.0
  end

(* The source of internal arc [a] is the head of its twin. *)
let arc_src g a = g.to_.(a lxor 1)

let add_arc g ~src ~dst ~cap ~cost =
  if g.frozen then invalid_arg "Mcmf.add_arc: topology frozen by a solve";
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Mcmf.add_arc: node out of range";
  if cap < 0 then invalid_arg "Mcmf.add_arc: negative capacity";
  if not (Float.is_finite cost) then invalid_arg "Mcmf.add_arc: non-finite cost";
  ensure_capacity g;
  let fwd = 2 * g.m and bwd = (2 * g.m) + 1 in
  g.to_.(fwd) <- dst;
  g.cap.(fwd) <- cap;
  g.cost.(fwd) <- cost;
  g.to_.(bwd) <- src;
  g.cap.(bwd) <- 0;
  g.cost.(bwd) <- -.cost;
  g.m <- g.m + 1;
  fwd / 2

(* The residual twin of a user arc always costs the negation. *)
let[@inline] write_cost g a cost =
  Array.unsafe_set g.cost (2 * a) cost;
  Array.unsafe_set g.cost ((2 * a) + 1) (-.cost)

let set_cost g a cost =
  if a < 0 || a >= g.m then invalid_arg "Mcmf.set_cost: no such arc";
  if not (Float.is_finite cost) then invalid_arg "Mcmf.set_cost: non-finite cost";
  write_cost g a cost

let set_costs g costs =
  if Array.length costs < g.m then invalid_arg "Mcmf.set_costs: too few costs";
  for a = 0 to g.m - 1 do
    if not (Float.is_finite (Array.unsafe_get costs a)) then
      invalid_arg "Mcmf.set_costs: non-finite cost"
  done;
  for a = 0 to g.m - 1 do
    write_cost g a (Array.unsafe_get costs a)
  done

type result = { flow : int; cost : float }

let infinity_dist = Float.max_float

(* [a] if it holds [len] elements, else a fresh array: of exactly [len]
   for a first graph, doubling when a reused one outgrows [a]. *)
let room a len fill =
  let have = Array.length a in
  if have >= len then a else Array.make (max len (2 * have)) fill

(* CSR adjacency: each node's range lists its internal arcs in
   descending arc id, the traversal order of the per-arc linked chains
   this layout replaced (head = last added).  Arc order decides which of
   several equal-cost paths the search finds, and so which optimal flow
   is returned.  [touched] serves as the fill cursor. *)
let build_adjacency g =
  let narcs = 2 * g.m in
  let start = room g.adj_start (g.n + 1) 0 in
  Array.fill start 0 (g.n + 1) 0;
  for a = 0 to narcs - 1 do
    let s = arc_src g a in
    start.(s + 1) <- start.(s + 1) + 1
  done;
  for v = 1 to g.n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let adj = room g.adj_arc narcs 0 in
  let cursor = g.touched in
  Array.blit start 0 cursor 0 g.n;
  for a = narcs - 1 downto 0 do
    let s = arc_src g a in
    adj.(cursor.(s)) <- a;
    cursor.(s) <- cursor.(s) + 1
  done;
  g.adj_start <- start;
  g.adj_arc <- adj

(* Kahn's topological order over the positive-capacity arcs; a cycle
   among them is rejected.  The FIFO lives in [order] itself: nodes are
   taken at [head] in the order they were added at [count], so the
   queue's pop order is the topological order.  [touched] serves as the
   in-degree count. *)
let topological_order g =
  let indegree = g.touched in
  Array.fill indegree 0 g.n 0;
  for a = 0 to (2 * g.m) - 1 do
    if g.cap.(a) > 0 then indegree.(g.to_.(a)) <- indegree.(g.to_.(a)) + 1
  done;
  let order = g.order in
  let count = ref 0 in
  for v = 0 to g.n - 1 do
    if indegree.(v) = 0 then begin
      order.(!count) <- v;
      incr count
    end
  done;
  let head = ref 0 in
  while !head < !count do
    let v = order.(!head) in
    incr head;
    for idx = g.adj_start.(v) to g.adj_start.(v + 1) - 1 do
      let a = g.adj_arc.(idx) in
      if g.cap.(a) > 0 then begin
        let w = g.to_.(a) in
        indegree.(w) <- indegree.(w) - 1;
        if indegree.(w) = 0 then begin
          order.(!count) <- w;
          incr count
        end
      end
    done
  done;
  if !count < g.n then
    invalid_arg "Mcmf.solve: graph has a positive-capacity cycle"

(* Everything a solve needs that depends only on the topology: the
   adjacency, the topological order and the solver scratch.  The heap
   starts small and doubles when a search holds more. *)
let freeze g =
  let n = g.n in
  g.touched <- room g.touched n 0;
  g.order <- room g.order n 0;
  build_adjacency g;
  topological_order g;
  g.pot <- room g.pot n 0.0;
  g.dist <- room g.dist n infinity_dist;
  g.pred_arc <- room g.pred_arc n (-1);
  Array.fill g.dist 0 n infinity_dist;
  Array.fill g.pred_arc 0 n (-1);
  g.heap_prio <- room g.heap_prio 16 0.0;
  g.heap_node <- room g.heap_node 16 0;
  g.frozen <- true

let heap_grow g =
  let cap = Array.length g.heap_prio in
  let cap' = 2 * cap in
  let prio' = Array.make cap' 0.0 and node' = Array.make cap' 0 in
  Array.blit g.heap_prio 0 prio' 0 cap;
  Array.blit g.heap_node 0 node' 0 cap;
  g.heap_prio <- prio';
  g.heap_node <- node'

(* Dijkstra on reduced costs; fills [dist] and [pred_arc] (internal arc id
   used to reach each node, or -1) for the nodes it reaches and lists
   them in [touched].  Stops as soon as [sink] is settled: the shortest
   source→sink path is then final, and the caller caps the potential
   update of unsettled nodes at [dist sink], which keeps every reduced
   cost non-negative (the standard early-exit SSP refinement).

   The frontier heap is inlined.  An entry moves past another only if its
   priority is strictly smaller, and a sinking entry swaps with its left
   child first on a tie, so the pop order among equal distances (common:
   zero-cost arcs, uniform noise) is fixed, and with it which optimal
   flow the solver returns. *)
let dijkstra g source sink =
  let pot = g.pot and dist = g.dist and pred_arc = g.pred_arc in
  let touched = g.touched in
  (* Only the previous search's nodes hold a finite distance. *)
  for i = 0 to g.touched_n - 1 do
    let v = Array.unsafe_get touched i in
    Array.unsafe_set dist v infinity_dist;
    Array.unsafe_set pred_arc v (-1)
  done;
  dist.(source) <- 0.0;
  touched.(0) <- source;
  let tn = ref 1 in
  g.heap_prio.(0) <- 0.0;
  g.heap_node.(0) <- source;
  let len = ref 1 in
  let adj_start = g.adj_start and adj_arc = g.adj_arc in
  let cap = g.cap and to_ = g.to_ and cost = g.cost in
  let pops = ref 0 in
  while !len > 0 do
    let prio = g.heap_prio and node = g.heap_node in
    let d = Array.unsafe_get prio 0 in
    let u = Array.unsafe_get node 0 in
    (* Pop: the last entry moves to the root and sinks below every
       strictly smaller child, the left one first on a tie. *)
    let last = !len - 1 in
    len := last;
    if last > 0 then begin
      let p = Array.unsafe_get prio last and x = Array.unsafe_get node last in
      let i = ref 0 and moving = ref true in
      while !moving do
        let l = (2 * !i) + 1 in
        let r = l + 1 in
        let smallest = ref !i and ps = ref p in
        if l < last && Array.unsafe_get prio l < !ps then begin
          smallest := l;
          ps := Array.unsafe_get prio l
        end;
        if r < last && Array.unsafe_get prio r < !ps then begin
          smallest := r;
          ps := Array.unsafe_get prio r
        end;
        if !smallest = !i then moving := false
        else begin
          Array.unsafe_set prio !i !ps;
          Array.unsafe_set node !i (Array.unsafe_get node !smallest);
          i := !smallest
        end
      done;
      Array.unsafe_set prio !i p;
      Array.unsafe_set node !i x
    end;
    incr pops;
    if u = sink then len := 0
    else if d <= Array.unsafe_get dist u +. 1e-12 then begin
      let du = Array.unsafe_get dist u and pu = Array.unsafe_get pot u in
      for idx = adj_start.(u) to adj_start.(u + 1) - 1 do
        let a = Array.unsafe_get adj_arc idx in
        if Array.unsafe_get cap a > 0 then begin
          let v = Array.unsafe_get to_ a in
          let pv = Array.unsafe_get pot v in
          if pv < infinity_dist then begin
            (* Reduced cost is non-negative in exact arithmetic; clamp
               tiny negatives from float rounding ([max 0.0 x], bit for
               bit, without the polymorphic compare). *)
            let x = Array.unsafe_get cost a +. pu -. pv in
            let nd = du +. (if 0.0 >= x then 0.0 else x) in
            let dv = Array.unsafe_get dist v in
            if nd < dv -. 1e-15 then begin
              if dv = infinity_dist then begin
                Array.unsafe_set touched !tn v;
                incr tn
              end;
              Array.unsafe_set dist v nd;
              Array.unsafe_set pred_arc v a;
              (* Push: sift the new entry up past strictly larger
                 parents. *)
              if !len = Array.length g.heap_prio then heap_grow g;
              let prio = g.heap_prio and node = g.heap_node in
              let i = ref !len in
              len := !len + 1;
              let moving = ref true in
              while !moving && !i > 0 do
                let parent = (!i - 1) / 2 in
                let pp = Array.unsafe_get prio parent in
                if nd < pp then begin
                  Array.unsafe_set prio !i pp;
                  Array.unsafe_set node !i (Array.unsafe_get node parent);
                  i := parent
                end
                else moving := false
              done;
              Array.unsafe_set prio !i nd;
              Array.unsafe_set node !i v
            end
          end
        end
      done
    end
  done;
  g.touched_n <- !tn;
  if Obs.on () then begin
    Obs.Counter.incr m_dijkstra_calls;
    Obs.Counter.add m_dijkstra_pops !pops
  end

(* Shortest distances from [source] over positive-capacity arcs, in
   topological order, written into [pot].  Negative arc costs are safe
   because those arcs form a DAG.  Nodes unreachable from [source] keep
   an infinite potential: they can never join an augmenting path, and
   Dijkstra skips arcs into them. *)
let dag_potentials g source =
  let pot = g.pot and order = g.order in
  Array.fill pot 0 g.n infinity_dist;
  pot.(source) <- 0.0;
  for i = 0 to g.n - 1 do
    let v = order.(i) in
    let dv = pot.(v) in
    if dv < infinity_dist then begin
      for idx = g.adj_start.(v) to g.adj_start.(v + 1) - 1 do
        let a = g.adj_arc.(idx) in
        if g.cap.(a) > 0 then begin
          let w = g.to_.(a) in
          let nd = dv +. g.cost.(a) in
          if nd < pot.(w) then pot.(w) <- nd
        end
      done
    end
  done

let run ?breakpoints g ~source ~sink ~target =
  if source = sink then invalid_arg "Mcmf.solve: source = sink";
  if source < 0 || source >= g.n || sink < 0 || sink >= g.n then
    invalid_arg "Mcmf.solve: node out of range";
  if g.frozen then begin
    (* Back to the capacities as added: a twin's residual capacity is
       exactly the flow its arc carries. *)
    Obs.Counter.incr m_graph_reuse;
    let cap = g.cap in
    for a = 0 to g.m - 1 do
      let f = Array.unsafe_get cap ((2 * a) + 1) in
      Array.unsafe_set cap (2 * a) (Array.unsafe_get cap (2 * a) + f);
      Array.unsafe_set cap ((2 * a) + 1) 0
    done
  end
  else freeze g;
  Obs.Counter.incr m_solves;
  dag_potentials g source;
  let pot = g.pot and dist = g.dist and pred_arc = g.pred_arc in
  let total_flow = ref 0 and total_cost = ref 0.0 in
  let continue = ref true in
  while !continue && !total_flow < target do
    dijkstra g source sink;
    if dist.(sink) >= infinity_dist then continue := false
    else begin
      (* Walk the augmenting path back from the sink: its true cost (summed
         sink-first) and its bottleneck capacity. *)
      let path_cost = ref 0.0 and bottleneck = ref max_int in
      let v = ref sink in
      while pred_arc.(!v) >= 0 do
        let a = pred_arc.(!v) in
        path_cost := !path_cost +. g.cost.(a);
        bottleneck := Int.min !bottleneck g.cap.(a);
        v := g.to_.(a lxor 1)
      done;
      (* Every arc the search used has capacity, so a path without any
         means corrupt search state: fail instead of augmenting by
         nothing forever. *)
      if !bottleneck <= 0 then failwith "Mcmf.solve: augmenting path has no capacity";
      let push = Int.min !bottleneck (target - !total_flow) in
      v := sink;
      while pred_arc.(!v) >= 0 do
        let a = pred_arc.(!v) in
        g.cap.(a) <- g.cap.(a) - push;
        g.cap.(a lxor 1) <- g.cap.(a lxor 1) + push;
        v := g.to_.(a lxor 1)
      done;
      Obs.Counter.incr m_augmentations;
      total_flow := !total_flow + push;
      total_cost := !total_cost +. (float_of_int push *. !path_cost);
      (match breakpoints with
      | Some acc -> acc := (!total_flow, !total_cost) :: !acc
      | None -> ());
      (* Johnson potential update for the reached nodes, capped at the
         sink's distance: nodes the early-exit search did not settle have
         dist ≥ dist(sink), so the cap keeps all reduced costs non-negative
         while charging unsettled nodes only what the finished path
         proved.  The cap is [min dv dsink], spelled out so the compare
         stays on floats. *)
      let dsink = dist.(sink) in
      let touched = g.touched in
      for i = 0 to g.touched_n - 1 do
        let v = Array.unsafe_get touched i in
        let dv = Array.unsafe_get dist v and pv = Array.unsafe_get pot v in
        if pv < infinity_dist then
          Array.unsafe_set pot v (pv +. if dv <= dsink then dv else dsink)
      done
    end
  done;
  { flow = !total_flow; cost = !total_cost }

let solve g ~source ~sink ~target = run g ~source ~sink ~target

let solve_curve g ~source ~sink ~target =
  let acc = ref [] in
  let result = run ~breakpoints:acc g ~source ~sink ~target in
  (List.rev !acc, result)

let flow_on g a =
  (* Flow on user arc [a] equals the residual capacity of its twin. *)
  g.cap.((2 * a) + 1)
