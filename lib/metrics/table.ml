type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

(* The first column is left-aligned, the rest right-aligned (numeric
   convention). *)
let render ~header rows =
  let cols = List.length header in
  let normalize row =
    let n = List.length row in
    if n >= cols then List.filteri (fun i _ -> i < cols) row
    else row @ List.init (cols - n) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) (String.length h) rows)
      header
  in
  let render_row row =
    let cells =
      List.mapi
        (fun i cell -> pad (if i = 0 then Left else Right) (List.nth widths i) cell)
        row
    in
    "  " ^ String.concat "  " cells
  in
  let rule = "  " ^ String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" ((render_row header :: rule :: List.map render_row rows) @ [ "" ])

let fmt_float ?(decimals = 3) x =
  if Float.is_nan x then "nan"
  else if x = infinity then "inf"
  else if x = neg_infinity then "-inf"
  else Printf.sprintf "%.*f" decimals x

let fmt_ratio x = if x = infinity then "inf" else Printf.sprintf "%.2fx" x
