module G = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal

type t = {
  lambda2 : float;
  lambda2_normalized : float;
  fiedler : int -> float;
  method_used : [ `Dense | `Lanczos | `Disconnected | `Trivial ];
}

let default_rng () = Random.State.make [| 0x5eed; 42 |]

let clamp_nonneg x = if x < 0.0 then (if x > -1e-8 then 0.0 else x) else x

(* Lanczos on sigma·I - L, deflating [null]: the largest Ritz value maps
   back to the smallest eigenvalue of L orthogonal to [null]. *)
let smallest_nonnull ~rng sparse_l null =
  let op = Operator.of_sparse sparse_l in
  let row_abs = Sparse.row_sums sparse_l in
  (* Gershgorin-style crude bound: for a Laplacian, lambda_max <= 2*d_max;
     use twice the largest diagonal entry + 1 to be safe for any PSD input. *)
  let sigma =
    2.0 *. Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 row_abs +. 1.0
  in
  let shifted = Operator.shifted_negated ~sigma op in
  let theta, vector = Lanczos.largest_restarted ~rng ~orth:[ null ] shifted in
  (clamp_nonneg (sigma -. theta), vector)

let analyze ?rng ?(dense_threshold = 128) g =
  let rng = match rng with Some r -> r | None -> default_rng () in
  let n = G.num_nodes g in
  if n <= 1 then
    { lambda2 = 0.0; lambda2_normalized = 0.0; fiedler = (fun _ -> 0.0); method_used = `Trivial }
  else if not (Traversal.is_connected g) then begin
    (* Indicator of the smallest component is a zero-cut sweep witness. *)
    let comps = Traversal.components g in
    let smallest =
      List.fold_left
        (fun acc c -> match acc with Some best when List.length best <= List.length c -> acc | _ -> Some c)
        None comps
    in
    let inside = Hashtbl.create 16 in
    (match smallest with
    | Some c -> List.iter (fun u -> Hashtbl.replace inside u ()) c
    | None -> ());
    {
      lambda2 = 0.0;
      lambda2_normalized = 0.0;
      fiedler = (fun u -> if Hashtbl.mem inside u then -1.0 else 1.0);
      method_used = `Disconnected;
    }
  end
  else if n <= dense_threshold then begin
    let p = G.pack g in
    let eig = Jacobi.eigensystem (Laplacian.dense p) in
    let lambda2 = clamp_nonneg eig.Jacobi.values.(1) in
    let fvec = Jacobi.eigenvector eig 1 in
    let eign = Jacobi.eigensystem (Sparse.to_dense (Laplacian.normalized_sparse p)) in
    let lambda2n = clamp_nonneg eign.Jacobi.values.(1) in
    {
      lambda2;
      lambda2_normalized = lambda2n;
      fiedler = (fun u -> fvec.(G.packed_index p u));
      method_used = `Dense;
    }
  end
  else begin
    let p = G.pack g in
    let lambda2, fvec = smallest_nonnull ~rng (Laplacian.sparse p) (Vec.ones n) in
    let dsqrt =
      Vec.init n (fun i -> sqrt (float_of_int (p.G.row_ptr.(i + 1) - p.G.row_ptr.(i))))
    in
    let lambda2n, _ = smallest_nonnull ~rng (Laplacian.normalized_sparse p) dsqrt in
    {
      lambda2;
      lambda2_normalized = lambda2n;
      fiedler = (fun u -> fvec.(G.packed_index p u));
      method_used = `Lanczos;
    }
  end

let lambda2 ?rng g = (analyze ?rng g).lambda2

let lambda2_normalized ?rng g = (analyze ?rng g).lambda2_normalized

let lambda_max ?rng g =
  let rng = match rng with Some r -> r | None -> default_rng () in
  let n = G.num_nodes g in
  if n <= 1 then 0.0
  else
    let lambda, _ = Power.largest ~rng (Operator.of_sparse (Laplacian.sparse (G.pack g))) in
    lambda
