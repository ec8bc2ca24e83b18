module Vec = Xheal_linalg.Vec
module Dense = Xheal_linalg.Dense
module Jacobi = Xheal_linalg.Jacobi
module Laplacian = Xheal_linalg.Laplacian
module Spectral = Xheal_linalg.Spectral
module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators

let checkf = Alcotest.(check (float 1e-9))
let checkf6 = Alcotest.(check (float 1e-6))

let test_vec_ops () =
  let x = [| 3.0; 4.0 |] and y = [| 1.0; -1.0 |] in
  checkf "dot" (-1.0) (Vec.dot x y);
  checkf "norm" 5.0 (Vec.norm2 x);
  Alcotest.(check bool) "scale" true (Support.approx_equal (Vec.scale 2.0 y) [| 2.0; -2.0 |]);
  let z = Vec.copy y in
  Vec.axpy ~alpha:3.0 x z;
  Alcotest.(check bool) "axpy" true (Support.approx_equal z [| 10.0; 11.0 |]);
  checkf "normalize" 1.0 (Vec.norm2 (Vec.normalize x));
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec.dot: dimension mismatch") (fun () ->
      ignore (Vec.dot x [| 1.0 |]))

let test_project_out () =
  let v = Vec.copy [| 1.0; 2.0; 3.0 |] in
  Vec.project_out (Vec.ones 3) ~from:v;
  checkf "orthogonal to ones" 0.0 (Vec.dot v (Vec.ones 3));
  let w = Vec.copy [| 5.0; 5.0 |] in
  Vec.project_out (Vec.create 2) ~from:w;
  Alcotest.(check bool) "zero projector is no-op" true (Support.approx_equal w [| 5.0; 5.0 |])

let test_dense_ops () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Dense.identity 2 in
  Alcotest.(check bool) "symmetric check" false (Dense.is_symmetric a);
  Alcotest.(check bool) "identity symmetric" true (Dense.is_symmetric i);
  checkf "off-diagonal frobenius of I" 0.0 (Dense.frobenius_off_diagonal i)

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
        (Support.residual a lam v < 1e-8))
    r.Jacobi.values

let test_jacobi_diagonal () =
  let a = [| [| 5.0; 0.0; 0.0 |]; [| 0.0; -2.0; 0.0 |]; [| 0.0; 0.0; 1.0 |] |] in
  let vals = (Jacobi.eigensystem a).Jacobi.values in
  Alcotest.(check bool) "sorted diagonal" true
    (Support.approx_equal ~tol:1e-9 vals [| -2.0; 1.0; 5.0 |])

let test_jacobi_rejects_asymmetric () =
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Jacobi.eigensystem: matrix not symmetric") (fun () ->
      ignore (Jacobi.eigensystem [| [| 0.0; 1.0 |]; [| 2.0; 0.0 |] |]))

(* Matrix/vector index i is rank i: ascending node ids. *)
let test_indexing () =
  let g = Support.of_edges [ (10, 20); (20, 42) ] in
  let l = Laplacian.combinatorial g in
  Alcotest.(check (array int)) "ids by rank" [| 10; 20; 42 |] (Laplacian.ids l);
  Alcotest.(check int) "laplacian dimension" 3 (Array.length (Laplacian.dense l));
  Alcotest.check_raises "missing" (Invalid_argument "Spectral.fiedler: node not in the graph")
    (fun () -> ignore ((Spectral.analyze g).Spectral.fiedler 5))

let test_laplacian_structure () =
  let g = Gen.star 4 in
  let l = Laplacian.dense (Laplacian.combinatorial g) in
  (* The hub, id 0, has rank 0. *)
  checkf "hub degree on diagonal" 3.0 l.(0).(0);
  checkf "edge entry" (-1.0) l.(0).(1);
  (* Rows sum to zero. *)
  Array.iter (fun row -> checkf "row sum" 0.0 (Array.fold_left ( +. ) 0.0 row)) l;
  Alcotest.(check bool) "normalized symmetric" true
    (Dense.is_symmetric (Laplacian.dense (Laplacian.normalized g)))

(* On a graph built in descending id order and churned so that fresh
   ids reuse freed slots, plus an isolated node (a zero normalized
   row). *)
let test_laplacian_on_scrambled_slots () =
  let g =
    Test_slot_kernels.churned_graph ~rng:(Random.State.make [| 29 |])
      ~id:Test_slot_kernels.wide_id 40
  in
  Graph.add_node g 7;
  Alcotest.(check bool) "slot order scrambled" true (Test_slot_kernels.scrambled g);
  let n = Graph.num_nodes g in
  let comb = Laplacian.combinatorial g and norm = Laplacian.normalized g in
  let ids = Laplacian.ids comb in
  Alcotest.(check (list int)) "ids ascending" (Graph.nodes g) (Array.to_list ids);
  let rng = Random.State.make [| 30 |] in
  let x = Vec.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  List.iter
    (fun (name, l) ->
      Alcotest.(check bool)
        (name ^ " matvec = dense matvec")
        true
        (Laplacian.matvec l x = Support.matvec (Laplacian.dense l) x))
    [ ("combinatorial", comb); ("normalized", norm) ];
  let d = Laplacian.dense comb in
  Array.iteri
    (fun i row ->
      let u = ids.(i) in
      checkf "diagonal is the degree" (float_of_int (Graph.degree g u)) row.(i);
      Array.iteri
        (fun j a ->
          if i <> j then
            checkf "off-diagonal marks an edge"
              (if Graph.has_edge g u ids.(j) then -1.0 else 0.0)
              a)
        row)
    d;
  Array.iter
    (fun s -> checkf "combinatorial row sums to 0" 0.0 s)
    (Laplacian.matvec comb (Vec.ones n));
  Alcotest.(check bool) "normalized symmetric" true
    (Dense.is_symmetric ~tol:0.0 (Laplacian.dense norm))

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
        (fun k -> Support.residual a r.Jacobi.values.(k) (Jacobi.eigenvector r k) < 1e-7)
        (Array.init n (fun k -> k)))

let suite =
  [
    ( "linalg",
      [
        Alcotest.test_case "vector ops" `Quick test_vec_ops;
        Alcotest.test_case "projection" `Quick test_project_out;
        Alcotest.test_case "dense ops" `Quick test_dense_ops;
        Alcotest.test_case "jacobi 2x2" `Quick test_jacobi_small;
        Alcotest.test_case "jacobi diagonal" `Quick test_jacobi_diagonal;
        Alcotest.test_case "jacobi asymmetric rejected" `Quick test_jacobi_rejects_asymmetric;
        Alcotest.test_case "indexing" `Quick test_indexing;
        Alcotest.test_case "laplacian structure" `Quick test_laplacian_structure;
        Alcotest.test_case "laplacian on scrambled slots" `Quick test_laplacian_on_scrambled_slots;
        QCheck_alcotest.to_alcotest prop_jacobi_residuals;
      ] );
  ]
