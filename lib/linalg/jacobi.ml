type result = { values : float array; vectors : Dense.t }

(* One Jacobi rotation annihilating a(p,q), updating both the working
   matrix and the accumulated eigenvector matrix. Standard stable
   formulation (Golub & Van Loan §8.5). *)
let rotate a v p q =
  let apq = a.(p).(q) in
  if Float.abs apq > 0.0 then begin
    let n = Array.length a in
    let theta = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. apq) in
    let t =
      let sign = if theta >= 0.0 then 1.0 else -1.0 in
      sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
    in
    let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
    let s = t *. c in
    let tau = s /. (1.0 +. c) in
    let app = a.(p).(p) and aqq = a.(q).(q) in
    a.(p).(p) <- app -. (t *. apq);
    a.(q).(q) <- aqq +. (t *. apq);
    a.(p).(q) <- 0.0;
    a.(q).(p) <- 0.0;
    for k = 0 to n - 1 do
      if k <> p && k <> q then begin
        let akp = a.(k).(p) and akq = a.(k).(q) in
        a.(k).(p) <- akp -. (s *. (akq +. (tau *. akp)));
        a.(p).(k) <- a.(k).(p);
        a.(k).(q) <- akq +. (s *. (akp -. (tau *. akq)));
        a.(q).(k) <- a.(k).(q)
      end
    done;
    for k = 0 to n - 1 do
      let vkp = v.(k).(p) and vkq = v.(k).(q) in
      v.(k).(p) <- vkp -. (s *. (vkq +. (tau *. vkp)));
      v.(k).(q) <- vkq +. (s *. (vkp -. (tau *. vkq)))
    done
  end

let max_sweeps = 100

let eigensystem m =
  if not (Dense.is_symmetric ~tol:1e-8 m) then
    invalid_arg "Jacobi.eigensystem: matrix not symmetric";
  let n = Dense.dim m in
  let a = Dense.copy m in
  let v = Dense.identity n in
  if n > 0 then begin
    let scale =
      Array.fold_left
        (fun acc row -> Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) acc row)
        1e-30 a
    in
    let tol = 1e-12 *. scale *. float_of_int n in
    let sweeps = ref 0 in
    while Dense.frobenius_off_diagonal a > tol && !sweeps < max_sweeps do
      incr sweeps;
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          rotate a v p q
        done
      done
    done
  end;
  (* Sort ascending, permuting eigenvector columns alongside. *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare a.(i).(i) a.(j).(j)) order;
  let values = Array.map (fun i -> a.(i).(i)) order in
  let vectors = Dense.init n (fun r k -> v.(r).(order.(k))) in
  { values; vectors }

let eigenvalues m = (eigensystem m).values

let eigenvector r k =
  let n = Dense.dim r.vectors in
  Array.init n (fun i -> r.vectors.(i).(k))

let residual a lambda v =
  let av = Dense.matvec a v in
  let diff = Vec.sub av (Vec.scale lambda v) in
  Vec.norm2 diff
