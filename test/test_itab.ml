(* Itab is total over int keys: [min_int] and [max_int] are ordinary
   keys, and a lookup never reads a stale value out of an empty slot. *)

open Helpers
module Itab = Ssj_prob.Itab

let test_min_int_absent () =
  let t = Itab.create () in
  check_int "fresh table" 42 (Itab.find_default t min_int 42);
  check_bool "fresh mem" false (Itab.mem t min_int);
  Itab.add t 9 3;
  Itab.decr t 9;
  Itab.decr t 9;
  Itab.decr t 9;
  check_int "after decr frees" 42 (Itab.find_default t min_int 42);
  check_int "freed key" 42 (Itab.find_default t 9 42)

let test_extreme_keys () =
  let t = Itab.create () in
  Itab.set t min_int 1;
  Itab.add t min_int 4;
  Itab.set t max_int 2;
  Itab.add t 0 3;
  check_int "min_int" 5 (Itab.find_default t min_int 0);
  check_int "max_int" 2 (Itab.find_default t max_int 0);
  check_int "zero" 3 (Itab.find_default t 0 0);
  check_bool "min_int bound" true (Itab.mem t min_int);
  let seen = ref [] in
  Itab.iter (fun k v -> seen := (k, v) :: !seen) t;
  check_bool "iter visits every binding" true
    (List.sort compare !seen = [ (min_int, 5); (0, 3); (max_int, 2) ]);
  (* [decr] counts [min_int] down like any key and frees it at zero. *)
  Itab.decr t min_int;
  check_int "decremented" 4 (Itab.find_default t min_int 0);
  let u = Itab.create () in
  Itab.decr u min_int;
  check_int "decr of an absent key" (-1) (Itab.find_default u min_int 0);
  Itab.add u min_int 1;
  check_bool "add to zero keeps the binding" true (Itab.mem u min_int);
  Itab.add u min_int 1;
  Itab.decr u min_int;
  check_bool "decr to zero frees" false (Itab.mem u min_int)

(* Random operation sequences against a [Hashtbl] model, over a key pool
   that mixes the extremes with small (colliding, growing) keys. *)
let prop_matches_hashtbl =
  let pool = [| min_int; max_int; 0; -1; 1; 1_000_000_000; -1_000_000_000 |] in
  qcheck "Itab == Hashtbl model, extreme keys included"
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (pair (int_range 0 2) (pair (int_range 0 40) (int_range (-3) 3))))
    (fun ops ->
      let t = Itab.create ~size:8 () and m = Hashtbl.create 16 in
      let key i = if i < Array.length pool then pool.(i) else i * 977 in
      let get k = Option.value ~default:0 (Hashtbl.find_opt m k) in
      List.iter
        (fun (op, (i, x)) ->
          let k = key i in
          match op with
          | 0 ->
            Itab.set t k x;
            Hashtbl.replace m k x
          | 1 ->
            Itab.add t k x;
            Hashtbl.replace m k (get k + x)
          | _ ->
            Itab.decr t k;
            let v = get k - 1 in
            if v = 0 then Hashtbl.remove m k else Hashtbl.replace m k v)
        ops;
      let keys = List.init 48 key in
      List.for_all
        (fun k ->
          Itab.mem t k = Hashtbl.mem m k
          && Itab.find_default t k 99
             = Option.value ~default:99 (Hashtbl.find_opt m k))
        keys
      &&
      let bindings = ref [] in
      Itab.iter (fun k v -> bindings := (k, v) :: !bindings) t;
      List.sort compare !bindings
      = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m []))

let suite =
  [
    Alcotest.test_case "min_int absent after decr" `Quick
      test_min_int_absent;
    Alcotest.test_case "extreme keys" `Quick test_extreme_keys;
    prop_matches_hashtbl;
  ]
