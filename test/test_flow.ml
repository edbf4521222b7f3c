open Ssj_flow
open Helpers

(* --- mcmf ----------------------------------------------------------- *)

let test_simple_path () =
  let g = Mcmf.create 3 in
  let a = Mcmf.add_arc g ~src:0 ~dst:1 ~cap:2 ~cost:1.0 in
  let b = Mcmf.add_arc g ~src:1 ~dst:2 ~cap:2 ~cost:2.0 in
  let r = Mcmf.solve g ~source:0 ~sink:2 ~target:2 in
  check_int "flow" 2 r.Mcmf.flow;
  check_float "cost" 6.0 r.Mcmf.cost;
  check_int "flow on a" 2 (Mcmf.flow_on g a);
  check_int "flow on b" 2 (Mcmf.flow_on g b)

let test_prefers_cheap_path () =
  (* Two parallel paths; the cheap one must carry the first unit. *)
  let g = Mcmf.create 4 in
  let cheap = Mcmf.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:1.0 in
  let _ = Mcmf.add_arc g ~src:1 ~dst:3 ~cap:1 ~cost:0.0 in
  let expensive = Mcmf.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:5.0 in
  let _ = Mcmf.add_arc g ~src:2 ~dst:3 ~cap:1 ~cost:0.0 in
  let r = Mcmf.solve g ~source:0 ~sink:3 ~target:1 in
  check_float "one unit, cheap" 1.0 r.Mcmf.cost;
  check_int "cheap used" 1 (Mcmf.flow_on g cheap);
  check_int "expensive unused" 0 (Mcmf.flow_on g expensive)

let test_negative_costs () =
  (* Negative arcs (benefits) must be handled by the topological
     potentials. *)
  let g = Mcmf.create 4 in
  let _ = Mcmf.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:0.0 in
  let _ = Mcmf.add_arc g ~src:1 ~dst:3 ~cap:1 ~cost:(-5.0) in
  let _ = Mcmf.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:0.0 in
  let _ = Mcmf.add_arc g ~src:2 ~dst:3 ~cap:1 ~cost:(-1.0) in
  let r = Mcmf.solve g ~source:0 ~sink:3 ~target:1 in
  check_float "picks most negative" (-5.0) r.Mcmf.cost

let test_rerouting_through_residual () =
  (* Classic instance where the optimum needs a residual (backward) arc. *)
  let g = Mcmf.create 4 in
  let _ = Mcmf.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:1.0 in
  let _ = Mcmf.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:10.0 in
  let _ = Mcmf.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:(-20.0) in
  let _ = Mcmf.add_arc g ~src:1 ~dst:3 ~cap:1 ~cost:1.0 in
  let _ = Mcmf.add_arc g ~src:2 ~dst:3 ~cap:1 ~cost:1.0 in
  let r = Mcmf.solve g ~source:0 ~sink:3 ~target:2 in
  check_int "flow 2" 2 r.Mcmf.flow;
  (* First augmentation takes 0-1-2-3 (cost -18); the second must cancel
     the 1-2 arc through its residual (0-2, residual 2-1, 1-3: cost 31),
     which lands on the true optimum {0-1-3, 0-2-3} = 2 + 11 = 13. *)
  check_float "optimal with residual" 13.0 r.Mcmf.cost

let test_insufficient_capacity () =
  let g = Mcmf.create 2 in
  let _ = Mcmf.add_arc g ~src:0 ~dst:1 ~cap:3 ~cost:1.0 in
  let r = Mcmf.solve g ~source:0 ~sink:1 ~target:10 in
  check_int "partial flow" 3 r.Mcmf.flow

(* The solver's contract is a DAG of positive-capacity arcs. *)
let test_rejects_cycle () =
  let g = Mcmf.create 3 in
  let _ = Mcmf.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:1.0 in
  let _ = Mcmf.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:1.0 in
  let _ = Mcmf.add_arc g ~src:2 ~dst:1 ~cap:1 ~cost:(-3.0) in
  match Mcmf.solve g ~source:0 ~sink:2 ~target:1 with
  | _ -> Alcotest.fail "expected Invalid_argument for a cycle"
  | exception Invalid_argument msg ->
    check_bool
      (Printf.sprintf "message %S names Mcmf.solve" msg)
      true
      (String.starts_with ~prefix:"Mcmf.solve" msg)

let test_zero_capacity_back_arc () =
  (* A back arc of capacity 0 closes no cycle the solver can use. *)
  let g = Mcmf.create 3 in
  let _ = Mcmf.add_arc g ~src:0 ~dst:1 ~cap:1 ~cost:1.0 in
  let _ = Mcmf.add_arc g ~src:1 ~dst:2 ~cap:1 ~cost:1.0 in
  let _ = Mcmf.add_arc g ~src:2 ~dst:1 ~cap:0 ~cost:(-5.0) in
  let _ = Mcmf.add_arc g ~src:0 ~dst:2 ~cap:1 ~cost:5.0 in
  let r = Mcmf.solve g ~source:0 ~sink:2 ~target:2 in
  check_int "flow" 2 r.Mcmf.flow;
  check_float "cost" 7.0 r.Mcmf.cost

(* Random small graphs: agree with the independent cycle-cancelling
   oracle. *)
let gen_graph =
  QCheck2.Gen.(
    let* nodes = int_range 3 7 in
    let* narcs = int_range 1 14 in
    let* arcs =
      list_repeat narcs
        (let* src = int_range 0 (nodes - 1) in
         let* dst = int_range 0 (nodes - 1) in
         let* cap = int_range 0 3 in
         let* cost = int_range (-8) 8 in
         return (src, dst, cap, float_of_int cost))
    in
    (* Keep it acyclic (forward arcs only) so negative costs are safe. *)
    let arcs =
      List.filter_map
        (fun (s, d, c, w) ->
          if s < d then Some (s, d, c, w)
          else if d < s then Some (d, s, c, w)
          else None)
        arcs
    in
    let* target = int_range 1 4 in
    return ({ Mcmf_check.nodes; arcs = Array.of_list arcs }, target))

let agrees_with_oracle ~eps (spec, target) =
  let source = 0 and sink = spec.Mcmf_check.nodes - 1 in
  let g = Mcmf.create spec.Mcmf_check.nodes in
  Array.iter
    (fun (src, dst, cap, cost) -> ignore (Mcmf.add_arc g ~src ~dst ~cap ~cost))
    spec.Mcmf_check.arcs;
  let fast = Mcmf.solve g ~source ~sink ~target in
  let slow_flow, slow_cost =
    Mcmf_check.min_cost_flow spec ~source ~sink ~target
  in
  fast.Mcmf.flow = slow_flow && Float.abs (fast.Mcmf.cost -. slow_cost) < eps

let prop_matches_oracle =
  qcheck ~count:300 "solver agrees with cycle-cancelling oracle" gen_graph
    (agrees_with_oracle ~eps:1e-6)

(* FlowExpect's costs are negated probabilities, not integers. *)
let prop_fractional_costs =
  qcheck ~count:300 "fractional costs agree with cycle-cancelling oracle"
    QCheck2.Gen.(
      map
        (fun (spec, target) ->
          let arcs =
            Array.map
              (fun (src, dst, cap, cost) -> (src, dst, cap, cost /. 7.0))
              spec.Mcmf_check.arcs
          in
          ({ spec with Mcmf_check.arcs }, target))
        gen_graph)
    (agrees_with_oracle ~eps:1e-9)

let prop_flow_conservation =
  qcheck ~count:200 "flow conservation and capacity limits" gen_graph
    (fun (spec, target) ->
      let source = 0 and sink = spec.Mcmf_check.nodes - 1 in
      let g = Mcmf.create spec.Mcmf_check.nodes in
      let handles =
        Array.map
          (fun (src, dst, cap, cost) ->
            (Mcmf.add_arc g ~src ~dst ~cap ~cost, src, dst, cap))
          spec.Mcmf_check.arcs
      in
      let r = Mcmf.solve g ~source ~sink ~target in
      let balance = Array.make spec.Mcmf_check.nodes 0 in
      let ok = ref true in
      Array.iter
        (fun (h, src, dst, cap) ->
          let f = Mcmf.flow_on g h in
          if f < 0 || f > cap then ok := false;
          balance.(src) <- balance.(src) - f;
          balance.(dst) <- balance.(dst) + f)
        handles;
      Array.iteri
        (fun v b ->
          if v = source then begin
            if b <> -r.Mcmf.flow then ok := false
          end
          else if v = sink then begin
            if b <> r.Mcmf.flow then ok := false
          end
          else if b <> 0 then ok := false)
        balance;
      !ok)

(* --- tie order and allocation --------------------------------------- *)

(* A time-expanded DAG shaped like FlowExpect's: slice 0 holds [width]
   nodes and each later slice copies the previous one and adds two fresh
   nodes.  Each node either keeps its unit to its copy in the next slice
   (a cost from a four-value cycle, so equal path costs abound) or hands
   it through the next slice's zero-cost connector to that slice's fresh
   nodes.  Arcs are (src, dst, cap, cost) with the cost already boxed, so
   rewriting costs from them allocates nothing. *)
let layered ~width ~depth =
  let size t = width + (2 * t) in
  (* Node 0 is the source, 1 the sink; slice t's nodes and then its
     connector follow slice t - 1's. *)
  let first = Array.make depth 2 in
  for t = 1 to depth - 1 do
    first.(t) <- first.(t - 1) + size (t - 1) + 1
  done;
  let node t i = first.(t) + i and connector t = first.(t) + size t in
  let costs = [| -0.25; -0.5; -0.25; 0.0 |] in
  let arcs = ref [] in
  let add src dst cost = arcs := (src, dst, 1, cost) :: !arcs in
  for i = 0 to width - 1 do
    add 0 (node 0 i) 0.0
  done;
  for t = 0 to depth - 2 do
    for i = 0 to size t - 1 do
      add (node t i) (node (t + 1) i) costs.(((7 * t) + (3 * i)) mod 4);
      add (node t i) (connector (t + 1)) 0.0
    done;
    add (connector (t + 1)) (node (t + 1) (size t)) 0.0;
    add (connector (t + 1)) (node (t + 1) (size t + 1)) 0.0
  done;
  for i = 0 to size (depth - 1) - 1 do
    add (node (depth - 1) i) 1 0.0
  done;
  (connector (depth - 1) + 1, Array.of_list (List.rev !arcs))

(* The flow on every arc, and the cost bits, of one solve on the
   FlowExpect-sized layered graph: among its many optimal flows, the
   Dijkstra frontier's tie order picks this one. *)
let test_tie_order_pinned () =
  let n, arcs = layered ~width:22 ~depth:11 in
  let g = Mcmf.create n in
  let handles =
    Array.map
      (fun (src, dst, cap, cost) -> Mcmf.add_arc g ~src ~dst ~cap ~cost)
      arcs
  in
  let r = Mcmf.solve g ~source:0 ~sink:1 ~target:20 in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%d %h;" r.Mcmf.flow r.Mcmf.cost;
  Array.iter (fun a -> Printf.bprintf b "%d," (Mcmf.flow_on g a)) handles;
  Alcotest.(check string)
    "flow digest" "7fa0ce7582e6d7145fb73452cec44f28"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Allocation is exact, so these gates have no timing noise.  After the
   first solve, a re-solve reuses the frozen topology and every arena,
   so at most the result record is allocated, at any graph size.  The
   window starts on an empty minor heap: a minor collection inside it
   would add the whole heap to [Gc.counters]' minor words. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let measure f =
  Gc.minor ();
  let before = allocated () in
  f ();
  allocated () -. before

let resolve_words ?(rewrite = false) ~width ~depth () =
  let overhead = measure ignore in
  let n, arcs = layered ~width ~depth in
  let g = Mcmf.create n in
  let handles =
    Array.map
      (fun (src, dst, cap, cost) -> Mcmf.add_arc g ~src ~dst ~cap ~cost)
      arcs
  in
  ignore (Mcmf.solve g ~source:0 ~sink:1 ~target:(width - 2));
  (* Arc i takes the cost of arc m-1-i. *)
  let m = Array.length arcs in
  measure (fun () ->
      if rewrite then
        for i = 0 to m - 1 do
          let _, _, _, cost = arcs.(m - 1 - i) in
          Mcmf.set_cost g handles.(i) cost
        done;
      ignore
        (Sys.opaque_identity (Mcmf.solve g ~source:0 ~sink:1 ~target:(width - 2))))
  -. overhead

let test_warm_solve_allocation () =
  let small = resolve_words ~width:8 ~depth:4 ()
  and large = resolve_words ~width:22 ~depth:11 () in
  if large > 16.0 then
    Alcotest.failf "warm solve allocated %.0f words (gate 16)" large;
  check_float "no growth with graph size" small large

let test_set_cost_resolve_allocation () =
  let small = resolve_words ~rewrite:true ~width:8 ~depth:4 ()
  and large = resolve_words ~rewrite:true ~width:22 ~depth:11 () in
  if large > 16.0 then
    Alcotest.failf "re-solve after set_cost allocated %.0f words (gate 16)"
      large;
  check_float "no growth with graph size" small large

let suite =
  [
    Alcotest.test_case "simple path" `Quick test_simple_path;
    Alcotest.test_case "prefers cheap path" `Quick test_prefers_cheap_path;
    Alcotest.test_case "negative costs" `Quick test_negative_costs;
    Alcotest.test_case "residual rerouting" `Quick
      test_rerouting_through_residual;
    Alcotest.test_case "insufficient capacity" `Quick
      test_insufficient_capacity;
    Alcotest.test_case "rejects a positive-capacity cycle" `Quick
      test_rejects_cycle;
    Alcotest.test_case "zero-capacity back arc is no cycle" `Quick
      test_zero_capacity_back_arc;
    prop_matches_oracle;
    prop_fractional_costs;
    prop_flow_conservation;
    Alcotest.test_case "tie order pinned" `Quick test_tie_order_pinned;
    Alcotest.test_case "warm solve allocation gate" `Quick
      test_warm_solve_allocation;
    Alcotest.test_case "re-solve after set_cost allocation gate" `Quick
      test_set_cost_resolve_allocation;
  ]
