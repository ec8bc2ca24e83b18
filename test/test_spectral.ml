module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Spectral = Xheal_linalg.Spectral
module Operator = Xheal_linalg.Operator
module Lanczos = Xheal_linalg.Lanczos
module Power = Xheal_linalg.Power
module Laplacian = Xheal_linalg.Laplacian
module Vec = Xheal_linalg.Vec
module Cuts = Xheal_graph.Cuts

let checkf tol = Alcotest.(check (float tol))

let pi = 4.0 *. atan 1.0

(* Closed-form algebraic connectivity. *)
let test_closed_forms () =
  checkf 1e-6 "cycle n" (2.0 -. (2.0 *. cos (2.0 *. pi /. 12.0))) (Spectral.lambda2 (Gen.cycle 12));
  checkf 1e-6 "path n" (2.0 -. (2.0 *. cos (pi /. 9.0))) (Spectral.lambda2 (Gen.path 9));
  checkf 1e-6 "complete K7" 7.0 (Spectral.lambda2 (Gen.complete 7));
  checkf 1e-6 "star" 1.0 (Spectral.lambda2 (Gen.star 11));
  checkf 1e-6 "hypercube Q3" 2.0 (Spectral.lambda2 (Gen.hypercube 3));
  checkf 1e-6 "complete bipartite K{3,5}" 3.0 (Spectral.lambda2 (Gen.complete_bipartite 3 5))

let test_trivial_and_disconnected () =
  checkf 1e-12 "single node" 0.0 (Spectral.lambda2 (Gen.empty 1));
  checkf 1e-12 "empty" 0.0 (Spectral.lambda2 (Gen.empty 0));
  let disc = Graph.of_edges ~nodes:[ 9 ] [ (0, 1); (1, 2) ] in
  let s = Spectral.analyze disc in
  checkf 1e-12 "disconnected lambda2" 0.0 s.Spectral.lambda2;
  Alcotest.(check bool) "method tag" true (s.Spectral.method_used = `Disconnected);
  (* The disconnected Fiedler surrogate yields a zero-cost sweep cut. *)
  checkf 1e-12 "sweep finds the free cut" 0.0 (Cuts.sweep_expansion disc ~scores:s.Spectral.fiedler)

let test_lanczos_agrees_with_dense () =
  (* Force the Lanczos path with a tiny dense_threshold and compare. *)
  let g = Gen.connected_er ~rng:(Random.State.make [| 5 |]) 40 0.15 in
  let dense = Spectral.analyze ~dense_threshold:200 g in
  let sparse = Spectral.analyze ~dense_threshold:4 g in
  checkf 1e-4 "lambda2 agreement" dense.Spectral.lambda2 sparse.Spectral.lambda2;
  checkf 1e-3 "normalized agreement" dense.Spectral.lambda2_normalized
    sparse.Spectral.lambda2_normalized;
  Alcotest.(check bool) "methods differ" true
    (dense.Spectral.method_used = `Dense && sparse.Spectral.method_used = `Lanczos)

let test_lanczos_small_gap () =
  (* Long path: tightly clustered spectrum, needs restarting. *)
  let n = 150 in
  let expected = 2.0 -. (2.0 *. cos (pi /. float_of_int n)) in
  let got = Spectral.analyze ~dense_threshold:10 (Gen.path n) in
  checkf (expected *. 0.05) "path-150 lambda2" expected got.Spectral.lambda2

let test_lambda_max () =
  (* K_n Laplacian has lambda_max = n; path has lambda_max < 4. *)
  checkf 1e-6 "complete" 10.0 (Spectral.lambda_max (Gen.complete 10));
  Alcotest.(check bool) "path bounded by 4" true (Spectral.lambda_max (Gen.path 40) < 4.0)

let test_cheeger_inequality () =
  (* Theorem 1: 2*phi >= lambda_norm > phi^2 / 2, on exact conductance. *)
  List.iter
    (fun g ->
      let s = Spectral.analyze g in
      let phi = Cuts.exact_conductance g in
      let l = s.Spectral.lambda2_normalized in
      if not (2.0 *. phi +. 1e-9 >= l && l >= (phi *. phi /. 2.0) -. 1e-9) then
        Alcotest.failf "Cheeger violated: phi=%f lambda=%f" phi l)
    [ Gen.cycle 10; Gen.complete 8; Gen.star 9; Gen.path 9; Gen.hypercube 3 ]

let test_fiedler_separates_barbell () =
  (* Two K5s joined by one edge: the Fiedler vector must separate them. *)
  let g = Gen.complete 5 in
  let h = Gen.relabel ~offset:5 (Gen.complete 5) in
  Graph.union_into ~dst:g h;
  ignore (Graph.add_edge g 0 5);
  let s = Spectral.analyze g in
  let side u = s.Spectral.fiedler u > 0.0 in
  let left = List.init 5 side and right = List.init 5 (fun i -> side (i + 5)) in
  Alcotest.(check bool) "left uniform" true (List.for_all (fun b -> b = List.hd left) left);
  Alcotest.(check bool) "right uniform" true (List.for_all (fun b -> b = List.hd right) right);
  Alcotest.(check bool) "sides differ" true (List.hd left <> List.hd right);
  (* And the sweep cut then finds the bottleneck: h = 1/5. *)
  checkf 1e-9 "sweep finds bridge" 0.2 (Cuts.sweep_expansion g ~scores:s.Spectral.fiedler)

let test_power_matches_lanczos () =
  let g = Gen.random_h_graph ~rng:(Random.State.make [| 3 |]) 30 2 in
  let op = Operator.of_sparse (Laplacian.sparse (Graph.pack g)) in
  let rng = Random.State.make [| 4 |] in
  let p, _ = Power.largest ~rng op in
  let r = Lanczos.run ~rng op in
  let lz, _ = Lanczos.largest r in
  checkf 1e-5 "largest eigenvalue agreement" lz p

let test_deflated_operator () =
  let l = Laplacian.sparse (Graph.pack (Gen.complete 6)) in
  let op = Operator.deflated (Operator.of_sparse l) [ Vec.ones 6 ] in
  let rng = Random.State.make [| 8 |] in
  (* All non-null eigenvalues of K6's Laplacian are 6. *)
  let lam, _ = Power.largest ~rng op in
  checkf 1e-6 "deflated largest" 6.0 lam

let suite =
  [
    ( "spectral",
      [
        Alcotest.test_case "closed-form spectra" `Quick test_closed_forms;
        Alcotest.test_case "trivial/disconnected" `Quick test_trivial_and_disconnected;
        Alcotest.test_case "lanczos vs dense" `Quick test_lanczos_agrees_with_dense;
        Alcotest.test_case "lanczos small gap (path-150)" `Quick test_lanczos_small_gap;
        Alcotest.test_case "lambda_max" `Quick test_lambda_max;
        Alcotest.test_case "cheeger inequality" `Quick test_cheeger_inequality;
        Alcotest.test_case "fiedler separates barbell" `Quick test_fiedler_separates_barbell;
        Alcotest.test_case "power vs lanczos" `Quick test_power_matches_lanczos;
        Alcotest.test_case "deflated operator" `Quick test_deflated_operator;
      ] );
  ]
