module Vec = Xheal_linalg.Vec
module Dense = Xheal_linalg.Dense
module Sparse = Xheal_linalg.Sparse
module Jacobi = Xheal_linalg.Jacobi
module Laplacian = Xheal_linalg.Laplacian
module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators

let checkf = Alcotest.(check (float 1e-9))
let checkf6 = Alcotest.(check (float 1e-6))

let test_vec_ops () =
  let x = [| 3.0; 4.0 |] and y = [| 1.0; -1.0 |] in
  checkf "dot" (-1.0) (Vec.dot x y);
  checkf "norm" 5.0 (Vec.norm2 x);
  Alcotest.(check bool) "add" true (Vec.approx_equal (Vec.add x y) [| 4.0; 3.0 |]);
  Alcotest.(check bool) "sub" true (Vec.approx_equal (Vec.sub x y) [| 2.0; 5.0 |]);
  Alcotest.(check bool) "scale" true (Vec.approx_equal (Vec.scale 2.0 y) [| 2.0; -2.0 |]);
  let z = Vec.copy y in
  Vec.axpy ~alpha:3.0 x z;
  Alcotest.(check bool) "axpy" true (Vec.approx_equal z [| 10.0; 11.0 |]);
  checkf "normalize" 1.0 (Vec.norm2 (Vec.normalize x));
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec.dot: dimension mismatch") (fun () ->
      ignore (Vec.dot x [| 1.0 |]))

let test_project_out () =
  let v = Vec.copy [| 1.0; 2.0; 3.0 |] in
  Vec.project_out (Vec.ones 3) ~from:v;
  checkf "orthogonal to ones" 0.0 (Vec.dot v (Vec.ones 3));
  let w = Vec.copy [| 5.0; 5.0 |] in
  Vec.project_out (Vec.create 2) ~from:w;
  Alcotest.(check bool) "zero projector is no-op" true (Vec.approx_equal w [| 5.0; 5.0 |])

let test_dense_ops () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "matvec" true (Vec.approx_equal (Dense.matvec a [| 1.0; 1.0 |]) [| 3.0; 7.0 |]);
  let at = Dense.transpose a in
  checkf "transpose" 3.0 (Dense.get at 0 1);
  let i = Dense.identity 2 in
  Alcotest.(check bool) "A * I = A" true (Dense.approx_equal (Dense.mul a i) a);
  Alcotest.(check bool) "symmetric check" false (Dense.is_symmetric a);
  Alcotest.(check bool) "identity symmetric" true (Dense.is_symmetric i);
  checkf "off-diagonal frobenius of I" 0.0 (Dense.frobenius_off_diagonal i)

let test_sparse_matvec_matches_dense () =
  let entries = [ (0, 0, 2.0); (0, 1, -1.0); (1, 1, 3.0); (2, 0, 0.5) ] in
  let s = Sparse.of_entries 3 entries in
  let d = Sparse.to_dense s in
  let x = [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "matvec agreement" true
    (Vec.approx_equal (Sparse.matvec s x) (Dense.matvec d x));
  Alcotest.(check int) "nnz" 4 (Sparse.nnz s)

let test_sparse_duplicate_coalescing () =
  let s = Sparse.of_entries 2 [ (0, 1, 1.0); (0, 1, 2.0) ] in
  checkf "summed" 3.0 (Dense.get (Sparse.to_dense s) 0 1);
  Alcotest.(check int) "one stored entry" 1 (Sparse.nnz s)

let test_sparse_symmetric_constructor () =
  let s = Sparse.of_symmetric_entries 3 [ (0, 1, 4.0); (2, 2, 1.0) ] in
  Alcotest.(check bool) "symmetric" true (Sparse.is_symmetric s);
  checkf "mirrored" 4.0 (Dense.get (Sparse.to_dense s) 1 0)

let test_jacobi_small () =
  (* [[2,1],[1,2]] has eigenvalues 1 and 3. *)
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let r = Jacobi.eigensystem a in
  checkf6 "lambda1" 1.0 r.Jacobi.values.(0);
  checkf6 "lambda2" 3.0 r.Jacobi.values.(1);
  Array.iteri
    (fun k lam ->
      let v = Jacobi.eigenvector r k in
      Alcotest.(check bool)
        (Printf.sprintf "residual %d" k)
        true
        (Jacobi.residual a lam v < 1e-8))
    r.Jacobi.values

let test_jacobi_diagonal () =
  let a = [| [| 5.0; 0.0; 0.0 |]; [| 0.0; -2.0; 0.0 |]; [| 0.0; 0.0; 1.0 |] |] in
  let vals = Jacobi.eigenvalues a in
  Alcotest.(check bool) "sorted diagonal" true
    (Vec.approx_equal ~tol:1e-9 vals [| -2.0; 1.0; 5.0 |])

let test_jacobi_rejects_asymmetric () =
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Jacobi.eigensystem: matrix not symmetric") (fun () ->
      ignore (Jacobi.eigensystem [| [| 0.0; 1.0 |]; [| 2.0; 0.0 |] |]))

(* Matrix/vector index i is packed index i: ascending node ids. *)
let test_indexing () =
  let p = Graph.pack (Graph.of_edges [ (10, 20); (20, 42) ]) in
  Alcotest.(check int) "size" 3 (Array.length p.Graph.p_ids);
  Alcotest.(check int) "index of 10" 0 (Graph.packed_index p 10);
  Alcotest.(check int) "node at 2" 42 p.Graph.p_ids.(2);
  Alcotest.check_raises "missing" (Invalid_argument "Graph.packed_index: node not in packed view")
    (fun () -> ignore (Graph.packed_index p 5));
  Alcotest.(check int) "laplacian dimension" 3 (Array.length (Laplacian.dense p))

let test_laplacian_structure () =
  let p = Graph.pack (Gen.star 4) in
  let l = Laplacian.dense p in
  let hub = Graph.packed_index p 0 in
  checkf "hub degree on diagonal" 3.0 (Dense.get l hub hub);
  checkf "edge entry" (-1.0) (Dense.get l 0 1);
  (* Rows sum to zero. *)
  Array.iter (fun row -> checkf "row sum" 0.0 (Array.fold_left ( +. ) 0.0 row)) l;
  Alcotest.(check bool) "normalized symmetric" true
    (Sparse.is_symmetric (Laplacian.normalized_sparse p))

let prop_jacobi_residuals =
  QCheck.Test.make ~name:"jacobi eigenpairs have tiny residuals" ~count:20
    QCheck.(int_range 2 9)
    (fun n ->
      let rng = Random.State.make [| n; 3 |] in
      let a =
        Dense.init n (fun i j -> if i <= j then Random.State.float rng 2.0 -. 1.0 else 0.0)
      in
      let a = Dense.init n (fun i j -> if i <= j then a.(i).(j) else a.(j).(i)) in
      let r = Jacobi.eigensystem a in
      Array.for_all
        (fun k -> Jacobi.residual a r.Jacobi.values.(k) (Jacobi.eigenvector r k) < 1e-7)
        (Array.init n (fun k -> k)))

let suite =
  [
    ( "linalg",
      [
        Alcotest.test_case "vector ops" `Quick test_vec_ops;
        Alcotest.test_case "projection" `Quick test_project_out;
        Alcotest.test_case "dense ops" `Quick test_dense_ops;
        Alcotest.test_case "sparse matvec" `Quick test_sparse_matvec_matches_dense;
        Alcotest.test_case "sparse coalescing" `Quick test_sparse_duplicate_coalescing;
        Alcotest.test_case "sparse symmetric ctor" `Quick test_sparse_symmetric_constructor;
        Alcotest.test_case "jacobi 2x2" `Quick test_jacobi_small;
        Alcotest.test_case "jacobi diagonal" `Quick test_jacobi_diagonal;
        Alcotest.test_case "jacobi asymmetric rejected" `Quick test_jacobi_rejects_asymmetric;
        Alcotest.test_case "indexing" `Quick test_indexing;
        Alcotest.test_case "laplacian structure" `Quick test_laplacian_structure;
        QCheck_alcotest.to_alcotest prop_jacobi_residuals;
      ] );
  ]
