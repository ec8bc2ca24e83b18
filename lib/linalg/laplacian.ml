module G = Xheal_graph.Graph

(* All operators are laid out straight off the packed CSR graph view
   (packed index = matrix index): [csr_of_pack p ~diag off] builds the
   operator whose off-diagonal entry (i, j) is [off i j] for every graph
   edge and whose diagonal is [diag i]. Row columns are the (sorted)
   neighbour indices with the diagonal spliced in at its sorted position
   — simple graphs have no self-loops, so it never collides with a
   neighbour column. That is structurally identical to a coalescing
   [Sparse.of_entries] build, hence bit-identical matvec results,
   without intermediate entry lists, hash tables or per-row sorts. *)
let csr_of_pack (p : G.packed) ~diag off =
  let n = Array.length p.G.p_ids in
  let nnz = Array.length p.G.cols + n in
  let row_ptr = Array.make (n + 1) 0 in
  let col = Array.make nnz 0 and value = Array.make nnz 0.0 in
  let k = ref 0 in
  let put j v =
    col.(!k) <- j;
    value.(!k) <- v;
    incr k
  in
  for i = 0 to n - 1 do
    row_ptr.(i) <- !k;
    let placed = ref false in
    for e = p.G.row_ptr.(i) to p.G.row_ptr.(i + 1) - 1 do
      let j = p.G.cols.(e) in
      if (not !placed) && i < j then begin
        put i (diag i);
        placed := true
      end;
      put j (off i j)
    done;
    if not !placed then put i (diag i)
  done;
  row_ptr.(n) <- !k;
  Sparse.of_sorted_rows n ~row_ptr ~col ~value

let pack_degree (p : G.packed) i = p.G.row_ptr.(i + 1) - p.G.row_ptr.(i)

let sparse p =
  csr_of_pack p ~diag:(fun i -> float_of_int (pack_degree p i)) (fun _ _ -> -1.0)

let dense p = Sparse.to_dense (sparse p)

let normalized_sparse (p : G.packed) =
  let n = Array.length p.G.p_ids in
  let invsqrt =
    Array.init n (fun i ->
        let d = pack_degree p i in
        if d = 0 then 0.0 else 1.0 /. sqrt (float_of_int d))
  in
  csr_of_pack p
    ~diag:(fun i -> if pack_degree p i = 0 then 0.0 else 1.0)
    (fun i j -> -.(invsqrt.(i) *. invsqrt.(j)))
