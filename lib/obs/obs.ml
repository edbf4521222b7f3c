(* Metrics live in a process-global registry; instrumented modules
   create them at init time and mutate them through Atomic cells, so the
   Domain-parallel runner aggregates exactly.  The whole layer hides
   behind one bool: every mutator starts with [if on () then ...], which
   compiles to a load and a branch when the gate is off. *)

let enabled =
  ref
    (match Sys.getenv_opt "SSJ_OBS" with
    | None | Some "" | Some "0" | Some "false" -> false
    | Some _ -> true)

let[@inline] on () = !enabled
let set_enabled v = enabled := v

type counter = { cname : string; cell : int Atomic.t }

type histogram = {
  hname : string;
  width : int;
  counts : int Atomic.t array; (* last bucket absorbs overflow *)
  hcount : int Atomic.t;
  hsum : int Atomic.t;
  hmin : int Atomic.t;
  hmax : int Atomic.t;
}

type metric = M_counter of counter | M_histogram of histogram

let registry : metric list ref = ref []
let registry_mu = Mutex.create ()

let register m =
  Mutex.lock registry_mu;
  registry := m :: !registry;
  Mutex.unlock registry_mu

(* Atomic min/max via CAS loop; contention is rare (histogram extremes
   move a handful of times per run). *)
let rec atomic_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then atomic_min cell v

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

module Counter = struct
  type t = counter

  let create name =
    let c = { cname = name; cell = Atomic.make 0 } in
    register (M_counter c);
    c

  let[@inline] incr c = if on () then Atomic.incr c.cell
  let[@inline] add c n = if on () then ignore (Atomic.fetch_and_add c.cell n)
  let value c = Atomic.get c.cell
  let name c = c.cname
end

module Histogram = struct
  type t = histogram

  let create ?(width = 1) ?(buckets = 64) name =
    if width < 1 then invalid_arg "Obs.Histogram.create: width < 1";
    if buckets < 1 then invalid_arg "Obs.Histogram.create: buckets < 1";
    let h =
      {
        hname = name;
        width;
        counts = Array.init buckets (fun _ -> Atomic.make 0);
        hcount = Atomic.make 0;
        hsum = Atomic.make 0;
        hmin = Atomic.make max_int;
        hmax = Atomic.make min_int;
      }
    in
    register (M_histogram h);
    h

  let observe h v =
    if on () then begin
      let b = if v <= 0 then 0 else v / h.width in
      let b = if b >= Array.length h.counts then Array.length h.counts - 1 else b in
      ignore (Atomic.fetch_and_add h.counts.(b) 1);
      ignore (Atomic.fetch_and_add h.hcount 1);
      ignore (Atomic.fetch_and_add h.hsum v);
      atomic_min h.hmin v;
      atomic_max h.hmax v
    end

  let count h = Atomic.get h.hcount
  let sum h = Atomic.get h.hsum

  let mean h =
    let n = count h in
    if n = 0 then 0.0 else float_of_int (sum h) /. float_of_int n

  let min_value h = Atomic.get h.hmin
  let max_value h = Atomic.get h.hmax
  let name h = h.hname
end

(* --- snapshots ------------------------------------------------------ *)

type view =
  | Counter_v of { name : string; value : int }
  | Histogram_v of {
      name : string;
      count : int;
      sum : int;
      min_v : int;
      max_v : int;
      width : int;
      buckets : (int * int) list;
    }

let snapshot () =
  let metrics =
    Mutex.lock registry_mu;
    let ms = !registry in
    Mutex.unlock registry_mu;
    List.rev ms
  in
  List.map
    (function
      | M_counter c -> Counter_v { name = c.cname; value = Atomic.get c.cell }
      | M_histogram h ->
        let buckets = ref [] in
        for b = Array.length h.counts - 1 downto 0 do
          let n = Atomic.get h.counts.(b) in
          if n > 0 then buckets := (b * h.width, n) :: !buckets
        done;
        Histogram_v
          {
            name = h.hname;
            count = Atomic.get h.hcount;
            sum = Atomic.get h.hsum;
            min_v = Atomic.get h.hmin;
            max_v = Atomic.get h.hmax;
            width = h.width;
            buckets = !buckets;
          })
    metrics

let reset () =
  Mutex.lock registry_mu;
  let ms = !registry in
  Mutex.unlock registry_mu;
  List.iter
    (function
      | M_counter c -> Atomic.set c.cell 0
      | M_histogram h ->
        Array.iter (fun b -> Atomic.set b 0) h.counts;
        Atomic.set h.hcount 0;
        Atomic.set h.hsum 0;
        Atomic.set h.hmin max_int;
        Atomic.set h.hmax min_int)
    ms

let json_of_snapshot views =
  let ints = List.map (fun (k, v) -> (k, Json.int v)) in
  let metric = function
    | Counter_v { name; value } -> (name, Json.int value)
    | Histogram_v { name; count; sum; min_v; max_v; width; buckets } ->
      let extremes =
        if count = 0 then [] else [ ("min", min_v); ("max", max_v) ]
      in
      let buckets = List.map (fun (lo, n) -> (string_of_int lo, n)) buckets in
      ( name,
        Json.Object
          (ints
             ([ ("count", count); ("sum", sum) ]
             @ extremes
             @ [ ("bucket_width", width) ])
          @ [ ("buckets", Json.Object (ints buckets)) ]) )
  in
  Json.Object (List.map metric views)

(* --- JSONL events --------------------------------------------------- *)

type sink = [ `Null | `Path of string | `Channel of out_channel ]

let sink : sink ref =
  ref
    (match Sys.getenv_opt "SSJ_OBS_FILE" with
    | Some p when p <> "" -> `Path p
    | Some _ | None -> `Null)

let sink_channel : out_channel option ref = ref None
let sink_mu = Mutex.create ()

let set_event_sink s =
  Mutex.lock sink_mu;
  (match !sink_channel with
  | Some oc -> ( (* close a channel we opened ourselves (`Path sinks) *)
    match !sink with
    | `Path _ -> ( try close_out oc with Sys_error _ -> ())
    | `Null | `Channel _ -> ())
  | None -> ());
  sink_channel := None;
  sink := s;
  Mutex.unlock sink_mu

(* Call with [sink_mu] held. *)
let channel_of_sink () =
  match !sink_channel with
  | Some oc -> Ok (Some oc)
  | None -> (
    match !sink with
    | `Null -> Ok None
    | `Channel oc ->
      sink_channel := Some oc;
      Ok (Some oc)
    | `Path p -> (
      match open_out_gen [ Open_append; Open_creat ] 0o644 p with
      | oc ->
        sink_channel := Some oc;
        Ok (Some oc)
      | exception Sys_error msg -> Error msg))

let open_event_sink () =
  Mutex.lock sink_mu;
  let opened = channel_of_sink () in
  if Result.is_error opened then sink := `Null;
  Mutex.unlock sink_mu;
  Result.map ignore opened

(* Events run inside engine steps, so a sink that fails there is
   dropped with one line on stderr instead of raising into the run. *)
let drop_sink msg =
  (match (!sink, !sink_channel) with
  | `Path _, Some oc -> close_out_noerr oc
  | _ -> ());
  sink := `Null;
  sink_channel := None;
  prerr_endline ("ssj_obs: events dropped: " ^ msg)

let event ~name fields =
  if on () && !sink <> `Null then begin
    Mutex.lock sink_mu;
    (match channel_of_sink () with
    | Ok None -> ()
    | Ok (Some oc) -> (
      let line = Json.Object (("event", Json.String name) :: fields) in
      try
        output_string oc (Json.to_string line ^ "\n");
        flush oc
      with Sys_error msg -> drop_sink msg)
    | Error msg -> drop_sink msg);
    Mutex.unlock sink_mu
  end
