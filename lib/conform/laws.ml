open Ssj_prob
open Ssj_stream
open Ssj_core
open Ssj_engine

(* Metamorphic laws: run the engine twice on related inputs and demand
   the related outputs.  Unlike the oracle pairs, no reference
   implementation is needed — the relation itself is the spec. *)

let gen_trace rng len = Array.init len (fun _ -> Rng.int rng 17 - 8)

let run_counts ~trace ~policy ~capacity ?window ?(band = 0) ?(warmup = 0) () =
  let r =
    Join_sim.run ~trace ~policy ~capacity ~warmup ?window ~band ()
  in
  (r.Join_sim.total_results, r.Join_sim.counted_results)

(* --- value-relabeling invariance ------------------------------------- *)

(* RAND draws per candidate in list order, PROB scores by partner-value
   frequency, window-aware LIFE adds a value-independent lifetime: all
   three are invariant under a common shift of every value.  HEEB is
   genuinely value-dependent (its predictors model absolute positions)
   and is deliberately absent.  Besides a small shift, the law moves the
   values (drawn from [-8, 8]) up against [max_int] and down against
   [min_int], where a band probe that wraps would lose matches. *)
let value_shifts = [ 17; max_int - 8; min_int + 8 ]

let value_shift_policies window seed =
  [
    ("RAND", fun () -> Baselines.rand ~rng:(Rng.create seed) ());
    ("PROB", fun () -> Baselines.prob ());
  ]
  @
  match window with
  | Some width ->
    [
      ( "LIFE",
        fun () ->
          Baselines.life ~lifetime:(Baselines.Of_window (Window.create ~width)) ()
      );
    ]
  | None -> []

let value_shift_check =
  Check.make ~name:"law:value-relabel-shift" ~kind:Check.Law
    ~fast:"Join_sim on a value-shifted trace"
    ~reference:"Join_sim on the original trace (counts must coincide)"
    (fun ~seed ~count ->
      Check.sweep ~count ~note:"join counts invariant under value shift"
        (fun i ->
          let rng = Rng.create (seed + (4177 * i)) in
          let len = 4 + Rng.int rng 33 in
          let r = gen_trace rng len and s = gen_trace rng len in
          let capacity = 1 + Rng.int rng 5 in
          let band = Rng.int rng 3 in
          let width = 2 + Rng.int rng 8 in
          let window = if Rng.bool rng then Some width else None in
          let wt = Option.map (fun w -> Window.create ~width:w) window in
          let pseed = Rng.int rng 1_000_000 in
          let counts ~shift fresh =
            let moved a = Array.map (fun v -> v + shift) a in
            run_counts
              ~trace:(Trace.of_values ~r:(moved r) ~s:(moved s))
              ~policy:(fresh ()) ~capacity ?window:wt ~band ()
          in
          List.find_map
            (fun (label, fresh) ->
              let base = counts ~shift:0 fresh in
              List.find_map
                (fun shift ->
                  let moved = counts ~shift fresh in
                  if base = moved then None
                  else
                    Some
                      (Printf.sprintf
                         "%s, shift %d: original (%d, %d) <> shifted (%d, %d)"
                         label shift (fst base) (snd base) (fst moved)
                         (snd moved)))
                value_shifts)
            (value_shift_policies window pseed)))

(* --- time-shift / causality ------------------------------------------ *)

(* Decisions are causal, so the full run's results split exactly at any
   cut point n: results before n equal a fresh run on the prefix, and
   results from n on equal the full run's warm-up-discounted tally.
   Holds for every policy whose state depends only on the past — all
   four in the registry (RAND re-seeded identically draws identically
   over the shared prefix). *)
let causality_check =
  Check.make ~name:"law:time-shift-causality" ~kind:Check.Law
    ~fast:"Join_sim full-run totals"
    ~reference:"prefix run + warm-up-discounted tail of the same run"
    (fun ~seed ~count ->
      Check.sweep ~count ~note:"results split exactly at every cut" (fun i ->
          let case = Oracles.gen_case ~seed:(seed + 53) i in
          (* Force an even, non-trivial length so the cut sits strictly
             inside the trace. *)
          let case =
            if Case.length case >= 6 then case
            else
              {
                case with
                Case.r_values = Array.append case.Case.r_values [| 0; 1; 2 |];
                s_values = Array.append case.Case.s_values [| 2; 1; 0 |];
              }
          in
          let n = Case.length case / 2 in
          let prefix a = Array.sub a 0 n in
          let counts ?warmup trace =
            run_counts ~trace ~policy:(Case.policy case)
              ~capacity:case.Case.capacity ?window:(Case.window case)
              ~band:case.Case.band ?warmup ()
          in
          let full_total, _ = counts (Case.trace case) in
          let _, tail = counts ~warmup:n (Case.trace case) in
          let prefix_total, _ =
            counts
              (Trace.of_values
                 ~r:(prefix case.Case.r_values)
                 ~s:(prefix case.Case.s_values))
          in
          if full_total = prefix_total + tail then None
          else
            Some
              (Printf.sprintf "%s: full %d <> prefix %d + tail-from-%d %d"
                 (Case.to_string case) full_total prefix_total n tail)))

(* --- capacity monotonicity of the offline optimum -------------------- *)

(* On OPT-offline's cases ([Oracles.opt_case] from [seed + 9311], a
   stream of its own: short traces and tiny ones, int extremes
   included), capacities 1 to 6. *)
let opt_monotone_check =
  Check.of_violation ~name:"law:opt-capacity-monotone" ~kind:Check.Law
    ~fast:"Opt_offline.max_results as capacity grows"
    ~reference:"MAX-subset benefit is monotone in the cache size"
    ~gen:(fun ~seed i -> Oracles.opt_case ~seed:(seed + 9311) i)
    (fun case ->
      let trace = Case.trace case and band = case.Case.band in
      let rec first_drop capacity below =
        if capacity > 6 then None
        else
          let v = Opt_offline.max_results ~band ~trace ~capacity () in
          if v >= below then first_drop (capacity + 1) v
          else
            Some
              (Printf.sprintf "OPT(cap %d) = %d < OPT(cap %d) = %d" capacity v
                 (capacity - 1) below)
      in
      first_drop 1 0)

(* --- zero-severity fault identity ------------------------------------ *)

let zero_fault_check =
  Check.make ~name:"law:fault-zero-severity-identity" ~kind:Check.Law
    ~fast:"Join_sim on a zero-severity-perturbed trace"
    ~reference:"the unperturbed run (traces and counts must be identical)"
    (fun ~seed ~count ->
      Check.sweep ~count ~note:"zero-severity faults are the identity" (fun i ->
          let rng = Rng.create (seed + (6007 * i)) in
          let len = 4 + Rng.int rng 33 in
          let trace =
            Trace.of_values ~r:(gen_trace rng len) ~s:(gen_trace rng len)
          in
          let spec =
            {
              Ssj_fault.Fault.kinds =
                [
                  Ssj_fault.Fault.Drop { rate = 0.0 };
                  Ssj_fault.Fault.Duplicate { rate = 0.0 };
                  Ssj_fault.Fault.Burst { rate = 0.0; len = 3 };
                  Ssj_fault.Fault.Stall { rate = 0.0; len = 2 };
                  Ssj_fault.Fault.Noise { rate = 0.0; amp = 2 };
                ];
              seed = Rng.int rng 1_000_000;
            }
          in
          let dirty = Ssj_fault.Fault.apply spec trace in
          if
            dirty.Trace.r_values <> trace.Trace.r_values
            || dirty.Trace.s_values <> trace.Trace.s_values
          then Some "zero-severity spec changed the trace"
          else begin
            let capacity = 1 + Rng.int rng 5 in
            let pseed = Rng.int rng 1_000_000 in
            let counts trace =
              run_counts ~trace
                ~policy:(Baselines.rand ~rng:(Rng.create pseed) ())
                ~capacity ()
            in
            let clean = counts trace and perturbed = counts dirty in
            if clean = perturbed then None
            else
              Some
                (Printf.sprintf "clean (%d, %d) <> zero-severity (%d, %d)"
                   (fst clean) (snd clean) (fst perturbed) (snd perturbed))
          end))

(* --- unbounded window equivalence ------------------------------------ *)

let unbounded_window_check =
  Check.make ~name:"law:window-unbounded-equiv" ~kind:Check.Law
    ~fast:"Join_sim with Window.unbounded"
    ~reference:"Join_sim with no window at all"
    (fun ~seed ~count ->
      Check.sweep ~count ~note:"unbounded window == regular semantics" (fun i ->
          let rng = Rng.create (seed + (2719 * i)) in
          let len = 4 + Rng.int rng 33 in
          let trace =
            Trace.of_values ~r:(gen_trace rng len) ~s:(gen_trace rng len)
          in
          let capacity = 1 + Rng.int rng 5 in
          let band = Rng.int rng 3 in
          let pseed = Rng.int rng 1_000_000 in
          List.find_map
            (fun (label, fresh) ->
              let plain = run_counts ~trace ~policy:(fresh ()) ~capacity ~band () in
              let windowed =
                run_counts ~trace ~policy:(fresh ()) ~capacity
                  ~window:Window.unbounded ~band ()
              in
              if plain = windowed then None
              else
                Some
                  (Printf.sprintf "%s: no-window (%d, %d) <> unbounded (%d, %d)"
                     label (fst plain) (snd plain) (fst windowed) (snd windowed)))
            [
              ("RAND", fun () -> Baselines.rand ~rng:(Rng.create pseed) ());
              ("PROB", fun () -> Baselines.prob ());
            ]))

(* --- Theorem 1: caching reduces to joining ------------------------- *)

(* The joining count of a caching run's image under the reduction
   (Section 2): on [Reduction.trace], the join side keeps exactly the
   S' tuples of the values the cache holds after each step, each value
   as the S' tuple of its latest supply (the "reasonable" policy). *)
let reduced_join_count ~reference ~capacity ~contents =
  let t = Reduction.trace (Reduction.transform reference) in
  let latest_supply = Hashtbl.create 32 in
  let select ~now ~cached:_ ~arrivals:_ ~capacity:_ =
    Hashtbl.replace latest_supply reference.(now) now;
    List.filter_map
      (fun value ->
        Option.map
          (fun arrival -> Trace.tuple t Tuple.S arrival)
          (Hashtbl.find_opt latest_supply value))
      contents.(now)
  in
  (Join_sim.run ~trace:t ~policy:(Ref_sim.plan ~name:"reduced" select)
     ~capacity ())
    .Join_sim.total_results

let theorem1_check =
  Check.make ~name:"law:theorem1-reduction" ~kind:Check.Law
    ~fast:"Cache_sim hits (LRU, LFU, LFD, RAND, caching_fn)"
    ~reference:"Join_sim on Reduction.trace replaying the cache contents"
    (fun ~seed ~count ->
      Check.sweep ~count ~note:"cache hits == reduced joins" (fun i ->
          let rng = Rng.create (seed + (4931 * i)) in
          let domain = 2 + Rng.int rng 8 in
          let reference =
            Array.init (20 + Rng.int rng 100) (fun _ -> Rng.int rng domain)
          in
          let capacity = 1 + Rng.int rng 5 in
          let h ~now:_ ~last v = float_of_int (((5 * v) + last) land 3) in
          List.find_map
            (fun (name, policy) ->
              let result, contents =
                Cache_sim.run_logged ~reference ~policy ~capacity ()
              in
              let joins = reduced_join_count ~reference ~capacity ~contents in
              if joins = result.Cache_sim.hits then None
              else
                Some
                  (Printf.sprintf "%s cap %d: %d hits <> %d joins" name capacity
                     result.Cache_sim.hits joins))
            [
              ("LRU", Classic.lru ());
              ("LFU", Classic.lfu ());
              ("LFD", Classic.lfd ~reference);
              ("RAND", Classic.rand_cache ~rng:(Rng.create (seed + i)));
              ("HEEB(h)", Heeb.caching_fn ~h ());
            ]))

let all =
  [
    value_shift_check;
    causality_check;
    opt_monotone_check;
    zero_fault_check;
    unbounded_window_check;
    theorem1_check;
  ]
