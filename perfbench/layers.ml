(* Per-layer timing probes, recorded from outside the program: the
   benchmark wraps the closures it hands to the runner (each policy's
   [select]/[fast]/[access]) and times the other layer entry points it
   calls itself (Trace.generate, Precompute, Opt_offline).

   One call in [stride] is sampled: its duration and minor-heap words go
   to the policy layer, and the gap from its end to the start of the
   next call — arrival, join-index probe and maintenance, the engine
   loop — goes to the simulator layer.  Everything a sampled probe
   touches is a plain int, so the probes allocate nothing and the words
   they report belong to the layer measured. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
let minor_words () = int_of_float (Gc.minor_words ())

type samples = { mutable ns : int array; mutable n : int }

let push s v =
  if s.n = Array.length s.ns then begin
    let grown = Array.make (max 1024 (2 * s.n)) 0 in
    Array.blit s.ns 0 grown 0 s.n;
    s.ns <- grown
  end;
  s.ns.(s.n) <- v;
  s.n <- s.n + 1

(* Nearest-rank percentile of the recorded samples; 0 when empty. *)
let percentile s q =
  if s.n = 0 then 0
  else begin
    let a = Array.sub s.ns 0 s.n in
    Array.sort compare a;
    a.(min (s.n - 1) (int_of_float (Float.ceil (q *. float_of_int s.n)) - 1))
  end

type policy_stat = {
  mutable calls : int;
  times : samples;
  mutable sampled_words : int;
}

type engine_stat = {
  mutable runs : int;
  mutable steps : int;
  mutable start_ns : int;  (** run start-up: factory call to first step *)
  mutable gap_ns : int;
  mutable gap_words : int;
  mutable gaps : int;
}

type t = {
  stride : int;
  policies : (string, policy_stat) Hashtbl.t;
  join : engine_stat;
  cache : engine_stat;
  mutable run_start : int;  (** -1 when no simulation run is open *)
  mutable run_ns : int;
  mutable opt_ns : int;
  mutable opt_calls : int;
}

let engine () = { runs = 0; steps = 0; start_ns = 0; gap_ns = 0; gap_words = 0; gaps = 0 }

let create ~stride =
  {
    stride = max 1 stride;
    policies = Hashtbl.create 8;
    join = engine ();
    cache = engine ();
    run_start = -1;
    run_ns = 0;
    opt_ns = 0;
    opt_calls = 0;
  }

let policy_stat tr label =
  match Hashtbl.find_opt tr.policies label with
  | Some st -> st
  | None ->
    let st = { calls = 0; times = { ns = [||]; n = 0 }; sampled_words = 0 } in
    Hashtbl.replace tr.policies label st;
    st

(* A simulation run is open from its policy-factory call to the next
   boundary: the next run's factory call, or a [close] by the benchmark
   after each runner call. *)
let close tr =
  let t = now_ns () in
  if tr.run_start >= 0 then tr.run_ns <- tr.run_ns + (t - tr.run_start);
  tr.run_start <- -1;
  t

type probe = {
  tr : t;
  eng : engine_stat;
  st : policy_stat;
  started : int;
  mutable i : int;
  mutable pending_t : int;  (** end of the last sampled call, -1 if none *)
  mutable pending_w : int;
  mutable t_in : int;  (** start of the current sampled call, -1 if none *)
  mutable w_in : int;
}

let begin_run tr eng st =
  let t = close tr in
  tr.run_start <- t;
  eng.runs <- eng.runs + 1;
  {
    tr;
    eng;
    st;
    started = t;
    i = 0;
    pending_t = -1;
    pending_w = 0;
    t_in = -1;
    w_in = 0;
  }

let enter p =
  let i = p.i in
  p.i <- i + 1;
  p.st.calls <- p.st.calls + 1;
  p.eng.steps <- p.eng.steps + 1;
  let sample = i mod p.tr.stride = 0 in
  if i = 0 || p.pending_t >= 0 || sample then begin
    let t = now_ns () in
    if i = 0 then p.eng.start_ns <- p.eng.start_ns + (t - p.started)
    else if p.pending_t >= 0 then begin
      p.eng.gap_ns <- p.eng.gap_ns + (t - p.pending_t);
      p.eng.gap_words <- p.eng.gap_words + (minor_words () - p.pending_w);
      p.eng.gaps <- p.eng.gaps + 1;
      p.pending_t <- -1
    end;
    if sample then begin
      p.w_in <- minor_words ();
      p.t_in <- now_ns ()
    end
  end

let leave p =
  if p.t_in >= 0 then begin
    let t = now_ns () in
    let w = minor_words () in
    push p.st.times (t - p.t_in);
    p.st.sampled_words <- p.st.sampled_words + (w - p.w_in);
    p.t_in <- -1;
    p.pending_t <- t;
    p.pending_w <- w
  end

let join tr (label, make) =
  let st = policy_stat tr label in
  ( label,
    fun () ->
      let p = begin_run tr tr.join st in
      let pol = make () in
      let select ~now ~cached ~arrivals ~capacity =
        enter p;
        let kept = pol.Ssj_core.Policy.select ~now ~cached ~arrivals ~capacity in
        leave p;
        kept
      in
      let fast =
        Option.map
          (fun f ~src ~dst ~now ~r ~s ~capacity ->
            enter p;
            f ~src ~dst ~now ~r ~s ~capacity;
            leave p)
          pol.Ssj_core.Policy.fast
      in
      { pol with Ssj_core.Policy.select; fast } )

let cache tr (label, make) =
  let st = policy_stat tr label in
  ( label,
    fun () ->
      let p = begin_run tr tr.cache st in
      let pol = make () in
      let access ~now ~cached ~value ~hit ~capacity =
        enter p;
        let kept = pol.Ssj_core.Policy.access ~now ~cached ~value ~hit ~capacity in
        leave p;
        kept
      in
      { pol with Ssj_core.Policy.access } )

let opt tr f =
  let t0 = close tr in
  let v = f () in
  tr.opt_ns <- tr.opt_ns + (now_ns () - t0);
  tr.opt_calls <- tr.opt_calls + 1;
  v

(* Estimated time spent inside one layer: mean sampled cost × count. *)
let policy_ns st =
  if st.times.n = 0 then 0.0
  else
    float_of_int (Array.fold_left ( + ) 0 (Array.sub st.times.ns 0 st.times.n))
    /. float_of_int st.times.n *. float_of_int st.calls

let engine_ns (e : engine_stat) =
  let per_gap =
    if e.gaps = 0 then 0.0 else float_of_int e.gap_ns /. float_of_int e.gaps
  in
  float_of_int e.start_ns +. (per_gap *. float_of_int (max 0 (e.steps - e.runs)))
