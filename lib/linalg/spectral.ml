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

(* Graphs up to this many nodes take the exact dense path. *)
let dense_threshold = 128

(* Lanczos on sigma·I - L, deflating [null]: the largest Ritz value maps
   back to the smallest eigenvalue of L orthogonal to [null]. *)
let smallest_nonnull ~rng l null =
  let n = Vec.dim null in
  (* sigma = 2·max(1, max_i |row sum i|) + 1, the row sums being L·1:
     exactly 3 for a combinatorial Laplacian, whose rows sum to 0. A
     shift does not change the Krylov space, so any sigma yields the
     same eigenpair; this one stays because another would change the
     rounding of every Lanczos result. *)
  let row_sums = Laplacian.matvec l (Vec.ones n) in
  let sigma =
    2.0 *. Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 row_sums +. 1.0
  in
  let apply x =
    let y = Laplacian.matvec l x in
    Array.mapi (fun i yi -> (sigma *. x.(i)) -. yi) y
  in
  let theta, vector = Lanczos.largest ~rng ~orth:[ null ] n apply in
  (clamp_nonneg (sigma -. theta), vector)

(* Score of node [u] in [vec], indexed by rank in the ascending [ids]
   (binary search). *)
let by_rank ids vec u =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ids.(mid) < u then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length ids && ids.(!lo) = u then vec.(!lo)
  else invalid_arg "Spectral.fiedler: node not in the graph"

let analyze ?rng g =
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
    let l = Laplacian.combinatorial g in
    let eig = Jacobi.eigensystem (Laplacian.dense l) in
    let lambda2 = clamp_nonneg eig.Jacobi.values.(1) in
    let fvec = Jacobi.eigenvector eig 1 in
    let eign = Jacobi.eigensystem (Laplacian.dense (Laplacian.normalized g)) in
    let lambda2n = clamp_nonneg eign.Jacobi.values.(1) in
    {
      lambda2;
      lambda2_normalized = lambda2n;
      fiedler = by_rank (Laplacian.ids l) fvec;
      method_used = `Dense;
    }
  end
  else begin
    let l = Laplacian.combinatorial g in
    let ids = Laplacian.ids l in
    let lambda2, fvec = smallest_nonnull ~rng l (Vec.ones n) in
    let dsqrt = Vec.init n (fun i -> sqrt (float_of_int (G.degree g ids.(i)))) in
    let lambda2n, _ = smallest_nonnull ~rng (Laplacian.normalized g) dsqrt in
    {
      lambda2;
      lambda2_normalized = lambda2n;
      fiedler = by_rank ids fvec;
      method_used = `Lanczos;
    }
  end

let lambda2 g = (analyze g).lambda2
