type t = { dim : int; apply : Vec.t -> Vec.t }

let of_sparse a = { dim = Sparse.dim a; apply = Sparse.matvec a }

let shifted_negated ~sigma a =
  {
    dim = a.dim;
    apply =
      (fun x ->
        let y = a.apply x in
        Array.mapi (fun i yi -> (sigma *. x.(i)) -. yi) y);
  }

let deflated a vs =
  let project x = List.iter (fun v -> Vec.project_out v ~from:x) vs in
  {
    dim = a.dim;
    apply =
      (fun x ->
        let x' = Vec.copy x in
        project x';
        let y = a.apply x' in
        project y;
        y);
  }

let apply a x = a.apply x
