type result = {
  ritz_values : float array;
  ritz_vectors : Vec.t array;
  steps : int;
}

let run ~rng ?steps ?(orth = []) ?start (op : Operator.t) =
  let n = op.Operator.dim in
  let budget =
    match steps with
    | Some s -> max 1 (min s n)
    | None -> max 1 (min (n - List.length orth) 120)
  in
  let project x = List.iter (fun v -> Vec.project_out v ~from:x) orth in
  (* Build an orthonormal Krylov basis with full reorthogonalization. *)
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
    let w = Operator.apply op qk in
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
  let qs = Array.of_list (List.rev !basis) in
  (* Tridiagonal Ritz problem, solved densely (m is small). *)
  let t =
    Dense.init m (fun i j ->
        if i = j then alphas.(i)
        else if abs (i - j) = 1 then betas.(max i j)
        else 0.0)
  in
  let eig = Jacobi.eigensystem t in
  let ritz_vectors =
    Array.init m (fun kk ->
        let s = Jacobi.eigenvector eig kk in
        let y = Vec.create n in
        Array.iteri (fun i qi -> Vec.axpy ~alpha:s.(i) qi y) qs;
        Vec.normalize y)
  in
  { ritz_values = eig.Jacobi.values; ritz_vectors; steps = m }

let largest_restarted ~rng ?steps ?(orth = []) ?(restarts = 6) ?(tol = 1e-9) op =
  let rec go round start best =
    let res = run ~rng ?steps ~orth ?start op in
    let m = Array.length res.ritz_values in
    let theta = res.ritz_values.(m - 1) and y = res.ritz_vectors.(m - 1) in
    let improved =
      match best with
      | None -> true
      | Some (prev, _) -> Float.abs (theta -. prev) > tol *. Float.max 1.0 (Float.abs theta)
    in
    if round >= restarts || not improved then (theta, y)
    else go (round + 1) (Some y) (Some (theta, y))
  in
  go 1 None None

let largest r =
  let m = Array.length r.ritz_values in
  if m = 0 then invalid_arg "Lanczos.largest: empty result";
  (r.ritz_values.(m - 1), r.ritz_vectors.(m - 1))
