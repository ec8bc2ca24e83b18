(* Krylov budget and restart policy, the same for every caller. *)
let max_steps = 120

let max_passes = 6

let tol = 1e-9

(* One pass from [start] (a random vector when [None]): an orthonormal
   Krylov basis with full reorthogonalization, then the largest Ritz
   pair of the tridiagonal problem, solved densely (the basis is
   small). *)
let pass ~rng ~orth ~start n apply =
  let budget = max 1 (min (n - List.length orth) max_steps) in
  let project x = List.iter (fun v -> Vec.project_out v ~from:x) orth in
  let basis = ref [] in
  let basis_count = ref 0 in
  let reorth x =
    project x;
    List.iter (fun q -> Vec.project_out q ~from:x) !basis
  in
  let alphas = Array.make budget 0.0 and betas = Array.make budget 0.0 in
  let q = match start with Some s -> Vec.copy s | None -> Vec.random_unit ~rng n in
  project q;
  let q = Vec.normalize q in
  let q = if Vec.norm2 q < 0.5 then Vec.normalize (Vec.random_unit ~rng n) else q in
  let current = ref q in
  basis := [ q ];
  basis_count := 1;
  let k = ref 0 in
  let broke = ref false in
  while (not !broke) && !k < budget do
    let qk = !current in
    let w = apply qk in
    project w;
    let alpha = Vec.dot w qk in
    alphas.(!k) <- alpha;
    (* w <- w - alpha q_k - beta q_{k-1}, then full reorthogonalization. *)
    Vec.axpy ~alpha:(-.alpha) qk w;
    reorth w;
    reorth w;
    let beta = Vec.norm2 w in
    incr k;
    if !k < budget then
      if beta < 1e-12 then broke := true
      else begin
        betas.(!k) <- beta;
        Vec.scale_inplace (1.0 /. beta) w;
        basis := w :: !basis;
        incr basis_count;
        current := w
      end
  done;
  let m = !basis_count in
  let t =
    Dense.init m (fun i j ->
        if i = j then alphas.(i)
        else if abs (i - j) = 1 then betas.(max i j)
        else 0.0)
  in
  let eig = Jacobi.eigensystem t in
  let s = Jacobi.eigenvector eig (m - 1) in
  let y = Vec.create n in
  List.iteri (fun i qi -> Vec.axpy ~alpha:s.(i) qi y) (List.rev !basis);
  (eig.Jacobi.values.(m - 1), Vec.normalize y)

let largest ~rng ~orth n apply =
  let rec go round start prev =
    let theta, y = pass ~rng ~orth ~start n apply in
    let improved =
      match prev with
      | None -> true
      | Some p -> Float.abs (theta -. p) > tol *. Float.max 1.0 (Float.abs theta)
    in
    if round >= max_passes || not improved then (theta, y) else go (round + 1) (Some y) (Some theta)
  in
  go 1 None None
