type t = float array array

let create n = Array.make_matrix n n 0.0

let init n f = Array.init n (fun i -> Array.init n (fun j -> f i j))

let copy a = Array.map Array.copy a

let dim a = Array.length a

let identity n = init n (fun i j -> if i = j then 1.0 else 0.0)

let is_symmetric ?(tol = 1e-9) a =
  let n = dim a in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Float.abs (a.(i).(j) -. a.(j).(i)) > tol then ok := false
    done
  done;
  !ok

let frobenius_off_diagonal a =
  let n = dim a in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then s := !s +. (a.(i).(j) *. a.(i).(j))
    done
  done;
  sqrt !s
