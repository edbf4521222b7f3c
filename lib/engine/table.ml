let float_cell ?(decimals = 1) v = Printf.sprintf "%.*f" decimals v

let print ?(out = Format.std_formatter) ~header rows =
  let all = header :: rows in
  let cols =
    List.fold_left (fun acc row -> max acc (List.length row)) 0 all
  in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let render row =
    let cells =
      List.mapi (fun i cell -> Printf.sprintf "%*s" widths.(i) cell) row
    in
    String.concat "  " cells
  in
  Format.fprintf out "%s@." (render header);
  let rule =
    String.concat "  "
      (List.mapi (fun i _ -> String.make widths.(i) '-') header)
  in
  Format.fprintf out "%s@." rule;
  List.iter (fun row -> Format.fprintf out "%s@." (render row)) rows

let series ?(out = Format.std_formatter) ?(decimals = 1) ~title ~x_label ~xs
    ~columns () =
  Format.fprintf out "@.== %s ==@." title;
  let n = List.length xs in
  List.iter
    (fun (label, data) ->
      if Array.length data <> n then
        invalid_arg
          (Printf.sprintf "Table.series: column %s has %d values for %d rows"
             label (Array.length data) n))
    columns;
  let header = x_label :: List.map fst columns in
  let rows =
    List.mapi
      (fun i x ->
        x :: List.map (fun (_, data) -> float_cell ~decimals data.(i)) columns)
      xs
  in
  print ~out ~header rows
