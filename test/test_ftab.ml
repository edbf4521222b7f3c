(* Ftab is total over int keys: [min_int] and [max_int] are ordinary
   keys, and a lookup never reads a stale value out of an empty slot. *)

open Helpers
module Ftab = Ssj_prob.Ftab

let test_min_int_absent () =
  let t = Ftab.create () in
  check_float "fresh table" 42.0 (Ftab.find_default t min_int 42.0);
  check_bool "fresh, any default" true
    (Float.is_nan (Ftab.find_default t min_int Float.nan));
  (* Bind enough other keys to grow the table: [min_int] stays absent. *)
  for k = 0 to 99 do
    Ftab.set t k (float_of_int k)
  done;
  check_float "after growth" 42.0 (Ftab.find_default t min_int 42.0);
  check_bool "after growth, any default" true
    (Float.is_nan (Ftab.find_default t min_int Float.nan))

let test_extreme_keys () =
  let t = Ftab.create () in
  Ftab.set t min_int 1.5;
  Ftab.set t max_int 2.5;
  Ftab.set t 0 3.5;
  check_float "min_int" 1.5 (Ftab.find_default t min_int 0.0);
  check_float "max_int" 2.5 (Ftab.find_default t max_int 0.0);
  check_float "zero" 3.5 (Ftab.find_default t 0 0.0);
  Ftab.set t min_int (-4.0);
  check_float "min_int overwritten" (-4.0) (Ftab.find_default t min_int 0.0);
  check_float "max_int untouched" 2.5 (Ftab.find_default t max_int 0.0)

(* Random set sequences against a [Hashtbl] model, over a key pool that
   mixes the extremes with small (colliding, growing) keys. *)
let prop_matches_hashtbl =
  let pool = [| min_int; max_int; 0; -1; 1; 1_000_000_000; -1_000_000_000 |] in
  qcheck "Ftab == Hashtbl model, extreme keys included"
    QCheck2.Gen.(list_size (int_range 0 300) (pair (int_range 0 40) (int_range (-3) 3)))
    (fun ops ->
      let t = Ftab.create ~size:8 () and m = Hashtbl.create 16 in
      let key i = if i < Array.length pool then pool.(i) else i * 977 in
      List.iter
        (fun (i, x) ->
          let v = float_of_int x /. 4.0 in
          Ftab.set t (key i) v;
          Hashtbl.replace m (key i) v)
        ops;
      List.for_all
        (fun k ->
          Float.is_nan (Ftab.find_default t k Float.nan) = not (Hashtbl.mem m k)
          && Ftab.find_default t k 99.0
             = Option.value ~default:99.0 (Hashtbl.find_opt m k))
        (List.init 48 key))

let suite =
  [
    Alcotest.test_case "min_int absent after create" `Quick test_min_int_absent;
    Alcotest.test_case "extreme keys" `Quick test_extreme_keys;
    prop_matches_hashtbl;
  ]
