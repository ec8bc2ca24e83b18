type t = float array

let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let dim = Array.length

let check2 name x y =
  if Array.length x <> Array.length y then invalid_arg ("Vec." ^ name ^ ": dimension mismatch")

let dot x y =
  check2 "dot" x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (x.(i) *. y.(i))
  done;
  !s

let norm2 x = sqrt (dot x x)

let scale a x = Array.map (fun v -> a *. v) x

let scale_inplace a x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- a *. x.(i)
  done

let axpy ~alpha x y =
  check2 "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let add x y =
  check2 "add" x y;
  Array.mapi (fun i v -> v +. y.(i)) x

let sub x y =
  check2 "sub" x y;
  Array.mapi (fun i v -> v -. y.(i)) x

let normalize x =
  let n = norm2 x in
  if n < 1e-300 then copy x else scale (1.0 /. n) x

let project_out u ~from =
  check2 "project_out" u from;
  let uu = dot u u in
  if uu > 1e-300 then begin
    let c = dot from u /. uu in
    axpy ~alpha:(-.c) u from
  end

let random_unit ~rng n =
  let x = init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let nx = norm2 x in
  if nx < 1e-12 then (
    let e = create n in
    if n > 0 then e.(0) <- 1.0;
    e)
  else scale (1.0 /. nx) x

let ones n = Array.make n 1.0

let basis n i =
  let e = create n in
  e.(i) <- 1.0;
  e

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if Float.abs (v -. y.(i)) > tol then ok := false) x;
  !ok
