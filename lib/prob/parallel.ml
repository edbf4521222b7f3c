(* Domain-based fork/join map over an array of independent work items.

   Each call spins up a pool of [jobs - 1] worker domains (the calling
   domain participates as the last worker), hands out indices through an
   atomic counter, and writes each result into its own slot — so the
   output ordering, and therefore every downstream summary, is identical
   for any job count and any scheduling.  Items must be independent: the
   runner guarantees this by constructing a fresh policy per trace. *)

let env_int name ~min ~default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= min -> n
    | _ ->
      invalid_arg
        (Printf.sprintf "%s must be an integer >= %d, got %S" name min s))

let default_jobs () =
  env_int "SSJ_JOBS" ~min:1 ~default:(Domain.recommended_domain_count ())

(* Run [count - 1] spawned copies of [worker] plus one on the calling
   domain, and join every domain that was actually spawned on every exit
   path.  If [Domain.spawn] itself fails partway (domain limit, OOM) the
   already-running workers are told to stop via [abort], joined, and the
   spawn error is re-raised — no Domain is ever leaked. *)
let run_pool ~count ~abort worker =
  let spawned = ref [] in
  let spawn_error = ref None in
  (try
     for _ = 2 to count do
       spawned := Domain.spawn worker :: !spawned
     done
   with e ->
     spawn_error := Some (e, Printexc.get_raw_backtrace ());
     Atomic.set abort true);
  (match !spawn_error with None -> worker () | Some _ -> ());
  List.iter Domain.join !spawned;
  match !spawn_error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map ?jobs f arr =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = Array.length arr in
  if n = 0 then [||]
  else if jobs = 1 || n = 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let abort = Atomic.make false in
    let failure = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get abort then continue := false
        else
          match f (Array.unsafe_get arr i) with
          | v -> results.(i) <- Some v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            Atomic.set abort true;
            continue := false
      done
    in
    run_pool ~count:(min jobs n) ~abort worker;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end
