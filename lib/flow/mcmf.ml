type arc = int

module Obs = Ssj_obs.Obs

(* Observability: solver activity and arena reuse.  [mcmf.graph_reuse]
   counting every [reset] against [mcmf.graph_create] is the direct
   measure of how often FlowExpect's handle amortises graph allocation. *)
let m_graph_create = Obs.Counter.create "mcmf.graph_create"
let m_graph_reuse = Obs.Counter.create "mcmf.graph_reuse"
let m_solves = Obs.Counter.create "mcmf.solves"
let m_dijkstra_calls = Obs.Counter.create "mcmf.dijkstra_calls"
let m_dijkstra_pops = Obs.Counter.create "mcmf.dijkstra_pops"
let m_augmentations = Obs.Counter.create "mcmf.augmentations"

type t = {
  mutable n : int;
  mutable m : int; (* number of user arcs; internal arcs = 2 * m *)
  mutable to_ : int array; (* indexed by internal arc id *)
  mutable cap : int array;
  mutable cost : float array;
  mutable solved : bool;
  (* CSR adjacency, rebuilt once per solve (arcs sorted by source node in
     insertion order): adj_arc.(adj_start.(v) .. adj_start.(v+1)-1) are
     the internal arcs out of v.  Flat and cache-friendly where the old
     per-arc linked chains pointer-chased all over the arc arrays. *)
  mutable adj_start : int array; (* length ≥ n + 1 *)
  mutable adj_arc : int array; (* length ≥ 2m *)
  (* Solver scratch, kept across [reset] so a solver handle reused every
     step (FlowExpect) stops churning the allocator: node-indexed arrays
     are grown on demand and re-filled per solve, the Dijkstra frontier
     heap is cleared per call. *)
  mutable pot : float array;
  mutable dist : float array;
  mutable pred_arc : int array;
  mutable order : int array; (* topological order scratch *)
  mutable indegree : int array;
  (* Dijkstra frontier: a binary min-heap of (priority, node) pairs as two
     parallel arrays, so priorities stay unboxed.  No decrease-key: a
     shorter distance pushes a duplicate and the stale entry is skipped
     when popped. *)
  mutable heap_prio : float array;
  mutable heap_node : int array;
  mutable heap_len : int;
}

let create n =
  Obs.Counter.incr m_graph_create;
  {
    n;
    m = 0;
    to_ = [||];
    cap = [||];
    cost = [||];
    solved = false;
    adj_start = [||];
    adj_arc = [||];
    pot = [||];
    dist = [||];
    pred_arc = [||];
    order = [||];
    indegree = [||];
    heap_prio = [||];
    heap_node = [||];
    heap_len = 0;
  }

let reset g ~n =
  if n < 1 then invalid_arg "Mcmf.reset: n < 1";
  Obs.Counter.incr m_graph_reuse;
  g.n <- n;
  g.m <- 0;
  g.solved <- false

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

let add_internal g src dst cap cost =
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

let add_arc g ~src ~dst ~cap ~cost =
  if g.solved then invalid_arg "Mcmf.add_arc: graph already solved";
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Mcmf.add_arc: node out of range";
  if cap < 0 then invalid_arg "Mcmf.add_arc: negative capacity";
  if not (Float.is_finite cost) then invalid_arg "Mcmf.add_arc: non-finite cost";
  add_internal g src dst cap cost

type result = { flow : int; cost : float }

let infinity_dist = Float.max_float

let ensure_scratch g =
  if Array.length g.pot < g.n then begin
    let cap = max g.n (2 * Array.length g.pot) in
    g.pot <- Array.make cap 0.0;
    g.dist <- Array.make cap 0.0;
    g.pred_arc <- Array.make cap (-1);
    g.order <- Array.make cap 0;
    g.indegree <- Array.make cap 0
  end

let build_adjacency g =
  ensure_scratch g;
  let narcs = 2 * g.m in
  if Array.length g.adj_start < g.n + 1 then
    g.adj_start <- Array.make (max (g.n + 1) (2 * Array.length g.adj_start)) 0;
  if Array.length g.adj_arc < narcs then
    g.adj_arc <- Array.make (max narcs (2 * Array.length g.adj_arc)) 0;
  let start = g.adj_start in
  Array.fill start 0 (g.n + 1) 0;
  for a = 0 to narcs - 1 do
    let s = arc_src g a in
    start.(s + 1) <- start.(s + 1) + 1
  done;
  for v = 1 to g.n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  (* Fill each node's range in descending arc id, matching the traversal
     order of the linked chains this layout replaced (head = last added);
     keeps path tie-breaking, and thus solver output, bit-identical. *)
  let cursor = g.indegree in
  Array.blit start 0 cursor 0 g.n;
  for a = narcs - 1 downto 0 do
    let s = arc_src g a in
    g.adj_arc.(cursor.(s)) <- a;
    cursor.(s) <- cursor.(s) + 1
  done

(* Frontier heap operations.  They take and return only ints: a float
   argument or result would be boxed at every call, so the caller writes
   priorities into [heap_prio] and reads them from it directly.  An entry
   moves past another only if its priority is strictly smaller, so the
   pop order among equal distances (common: zero-cost arcs, uniform
   noise) is fixed, and with it which optimal flow the solver returns. *)
let heap_grow g =
  let cap = Array.length g.heap_prio in
  if g.heap_len = cap then begin
    let cap' = max 16 (2 * cap) in
    let prio' = Array.make cap' 0.0 and node' = Array.make cap' 0 in
    Array.blit g.heap_prio 0 prio' 0 g.heap_len;
    Array.blit g.heap_node 0 node' 0 g.heap_len;
    g.heap_prio <- prio';
    g.heap_node <- node'
  end

(* Restores the heap order above slot [i], whose entry was just written.
   Slots are < [heap_len] by construction, so unsafe accesses are in
   bounds. *)
let heap_sift_up g i =
  let prio = g.heap_prio and node = g.heap_node in
  let p = Array.unsafe_get prio i and x = Array.unsafe_get node i in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get prio parent in
    if p < pp then begin
      Array.unsafe_set prio !i pp;
      Array.unsafe_set node !i (Array.unsafe_get node parent);
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set node !i x

(* Removes the minimum: the last entry moves to the root and sinks below
   every strictly smaller child, the left one first on a tie. *)
let heap_drop_min g =
  let len = g.heap_len - 1 in
  g.heap_len <- len;
  if len > 0 then begin
    let prio = g.heap_prio and node = g.heap_node in
    let p = Array.unsafe_get prio len and x = Array.unsafe_get node len in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let smallest = ref !i and ps = ref p in
      if l < len && Array.unsafe_get prio l < !ps then begin
        smallest := l;
        ps := Array.unsafe_get prio l
      end;
      if r < len && Array.unsafe_get prio r < !ps then begin
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
  end

(* Dijkstra on reduced costs; fills [dist] and [pred_arc] (internal arc id
   used to reach each node, or -1).  Stops as soon as [sink] is settled:
   the shortest source→sink path is then final, and the caller caps the
   potential update of unsettled nodes at [dist sink], which keeps every
   reduced cost non-negative (the standard early-exit SSP refinement). *)
let dijkstra g source sink =
  let pot = g.pot and dist = g.dist and pred_arc = g.pred_arc in
  Array.fill dist 0 g.n infinity_dist;
  Array.fill pred_arc 0 g.n (-1);
  dist.(source) <- 0.0;
  g.heap_len <- 0;
  heap_grow g;
  g.heap_prio.(0) <- 0.0;
  g.heap_node.(0) <- source;
  g.heap_len <- 1;
  let adj_start = g.adj_start and adj_arc = g.adj_arc in
  let cap = g.cap and to_ = g.to_ and cost = g.cost in
  let pops = ref 0 in
  let continue = ref true in
  while !continue do
    if g.heap_len = 0 then continue := false
    else begin
      let d = Array.unsafe_get g.heap_prio 0 in
      let u = Array.unsafe_get g.heap_node 0 in
      heap_drop_min g;
      incr pops;
      if u = sink then continue := false
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
              if nd < Array.unsafe_get dist v -. 1e-15 then begin
                Array.unsafe_set dist v nd;
                Array.unsafe_set pred_arc v a;
                heap_grow g;
                let i = g.heap_len in
                Array.unsafe_set g.heap_prio i nd;
                Array.unsafe_set g.heap_node i v;
                g.heap_len <- i + 1;
                heap_sift_up g i
              end
            end
          end
        done
      end
    end
  done;
  if Obs.on () then begin
    Obs.Counter.incr m_dijkstra_calls;
    Obs.Counter.add m_dijkstra_pops !pops
  end

(* Shortest distances from [source] over positive-capacity arcs, via one
   topological pass (Kahn).  Negative arc costs are safe because those
   arcs form a DAG; a cycle among them is rejected. *)
let dag_distances g source dist =
  let indegree = g.indegree in
  Array.fill indegree 0 g.n 0;
  for a = 0 to (2 * g.m) - 1 do
    if g.cap.(a) > 0 then indegree.(g.to_.(a)) <- indegree.(g.to_.(a)) + 1
  done;
  (* Kahn's FIFO lives in [order] itself: nodes are taken at [head] in the
     order they were added at [count], so the queue's pop order is the
     topological order. *)
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
    invalid_arg "Mcmf.solve: graph has a positive-capacity cycle";
  Array.fill dist 0 g.n infinity_dist;
  dist.(source) <- 0.0;
  for i = 0 to g.n - 1 do
    let v = order.(i) in
    if dist.(v) < infinity_dist then begin
      for idx = g.adj_start.(v) to g.adj_start.(v + 1) - 1 do
        let a = g.adj_arc.(idx) in
        if g.cap.(a) > 0 then begin
          let w = g.to_.(a) in
          let nd = dist.(v) +. g.cost.(a) in
          if nd < dist.(w) then dist.(w) <- nd
        end
      done
    end
  done

let run ?breakpoints g ~source ~sink ~target =
  if g.solved then invalid_arg "Mcmf.solve: graph already solved";
  g.solved <- true;
  if source = sink then invalid_arg "Mcmf.solve: source = sink";
  Obs.Counter.incr m_solves;
  build_adjacency g;
  let pot = g.pot and dist = g.dist and pred_arc = g.pred_arc in
  dag_distances g source dist;
  (* Nodes unreachable from [source] keep an infinite potential: they can
     never join an augmenting path, and Dijkstra skips arcs into them. *)
  Array.blit dist 0 pot 0 g.n;
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
      (* Johnson potential update for reached nodes, capped at the sink's
         distance: nodes the early-exit search did not settle have
         dist ≥ dist(sink), so the cap keeps all reduced costs non-negative
         while charging unsettled nodes only what the finished path
         proved.  The cap is [min dv dsink], spelled out so the compare
         stays on floats. *)
      let dsink = dist.(sink) in
      for v = 0 to g.n - 1 do
        let dv = dist.(v) in
        if dv < infinity_dist && pot.(v) < infinity_dist then
          pot.(v) <- pot.(v) +. (if dv <= dsink then dv else dsink)
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
