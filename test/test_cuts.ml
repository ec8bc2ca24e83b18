module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Cuts = Xheal_graph.Cuts

let checkf = Alcotest.(check (float 1e-9))

let test_cut_size () =
  let g = Gen.cycle 6 in
  Alcotest.(check int) "contiguous arc" 2 (Support.cut_size g [ 0; 1; 2 ]);
  Alcotest.(check int) "alternating" 6 (Support.cut_size g [ 0; 2; 4 ]);
  Alcotest.(check int) "everything" 0 (Support.cut_size g [ 0; 1; 2; 3; 4; 5 ]);
  Alcotest.(check int) "empty set" 0 (Support.cut_size g [])

let test_exact_expansion_known () =
  checkf "complete K8: n/2" 4.0 (Cuts.exact_expansion (Gen.complete 8));
  checkf "cycle 8: 2/(n/2)" 0.5 (Cuts.exact_expansion (Gen.cycle 8));
  checkf "path 8: cut an end" 0.25 (Cuts.exact_expansion (Gen.path 8));
  checkf "star 9: leaves" 1.0 (Cuts.exact_expansion (Gen.star 9));
  checkf "disconnected: 0" 0.0 (Cuts.exact_expansion (Support.of_edges ~nodes:[ 9 ] [ (0, 1) ]));
  checkf "single edge" 1.0 (Cuts.exact_expansion (Gen.path 2))

let test_exact_conductance_known () =
  (* K4: best cut is 2-2 (cut=4, vol=6) or 1-3 (cut=3, vol=3): phi=min(4/6,1)=2/3 *)
  checkf "complete K4" (2.0 /. 3.0) (Cuts.exact_conductance (Gen.complete 4));
  (* cycle 8: half-half: cut 2, vol 8 -> 1/4 *)
  checkf "cycle 8" 0.25 (Cuts.exact_conductance (Gen.cycle 8));
  checkf "disconnected: 0" 0.0 (Cuts.exact_conductance (Support.of_edges ~nodes:[ 9 ] [ (0, 1) ]))

let test_size_guard () =
  Alcotest.check_raises "one node past the limit"
    (Invalid_argument "Cuts.exact_expansion: graph has 23 nodes (> 22)") (fun () ->
      ignore (Cuts.exact_expansion (Gen.path 23)));
  Alcotest.check_raises "conductance shares the limit"
    (Invalid_argument "Cuts.exact_conductance: graph has 30 nodes (> 22)") (fun () ->
      ignore (Cuts.exact_conductance (Gen.path 30)))

let test_sweep_matches_exact_on_structured () =
  (* With the ideal score (position), the sweep finds the optimal cut of
     a path. *)
  let g = Gen.path 10 in
  let sweep = Cuts.sweep_expansion g ~scores:float_of_int in
  checkf "sweep on path with positional scores" (Cuts.exact_expansion g) sweep

let prop_sweep_upper_bounds_exact =
  QCheck.Test.make ~name:"sweep expansion >= exact expansion" ~count:40
    QCheck.(pair (int_range 4 11) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.connected_er ~rng n 0.4 in
      let exact = Cuts.exact_expansion g in
      (* Any score function gives an upper bound; use a random one. *)
      let scores u = float_of_int ((u * 7919) mod 13) in
      Cuts.sweep_expansion g ~scores >= exact -. 1e-9)

let prop_conductance_le_expansion_over_dmin =
  QCheck.Test.make ~name:"inequality (1): h/dmax <= phi <= h/dmin" ~count:40
    QCheck.(pair (int_range 4 10) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.connected_er ~rng n 0.5 in
      QCheck.assume (Graph.num_edges g > 0);
      let h = Cuts.exact_expansion g and phi = Cuts.exact_conductance g in
      let dmin = float_of_int (Graph.min_degree g) and dmax = float_of_int (Graph.max_degree g) in
      QCheck.assume (dmin > 0.0);
      (h /. dmax) -. 1e-9 <= phi && phi <= (h /. dmin) +. 1e-9)

let suite =
  [
    ( "cuts",
      [
        Alcotest.test_case "cut_size" `Quick test_cut_size;
        Alcotest.test_case "exact expansion (closed forms)" `Quick test_exact_expansion_known;
        Alcotest.test_case "exact conductance (closed forms)" `Quick test_exact_conductance_known;
        Alcotest.test_case "size guard" `Quick test_size_guard;
        Alcotest.test_case "sweep with ideal scores" `Quick test_sweep_matches_exact_on_structured;
        QCheck_alcotest.to_alcotest prop_sweep_upper_bounds_exact;
        QCheck_alcotest.to_alcotest prop_conductance_le_expansion_over_dmin;
      ] );
  ]
