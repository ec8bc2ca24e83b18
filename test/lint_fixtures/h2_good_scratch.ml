(* H2: reusing pre-sized scratch state keeps the loop allocation-free
   (the Traversal.slot_bfs shape). *)
(* xlint: hot *)
let histogram values width =
  let bins = Array.make width 0 in
  let n = Array.length values in
  for i = 0 to n - 1 do
    let b = values.(i) mod width in
    bins.(b) <- bins.(b) + 1
  done;
  bins
