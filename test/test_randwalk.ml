module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Randwalk = Xheal_linalg.Randwalk

let checkf = Alcotest.(check (float 1e-9))

(* The walk's target is degree-proportional: on the star K_{1,4} the
   hub holds 4/8 of the mass and each leaf 1/8, which is exactly where
   one lazy step from the hub puts it (half stays, half spreads over
   the four leaves). *)
let test_stationary () =
  Alcotest.(check (option int)) "hub start reaches pi in one step" (Some 1)
    (Randwalk.mixing_time ~eps:0.0 ~starts:[ 0 ] (Gen.star 5))

(* A step that lost or gained mass, or did not fix pi, would leave the
   walk a constant distance from pi; it gets within 1e-9 instead. *)
let test_step_preserves_mass () =
  Alcotest.(check bool) "converges to pi" true
    (Randwalk.mixing_time ~eps:1e-9 (Gen.grid 3 3) <> None)

let test_tv_distance () =
  checkf "identical" 0.0 (Randwalk.tv_distance [| 0.5; 0.5 |] [| 0.5; 0.5 |]);
  checkf "disjoint" 1.0 (Randwalk.tv_distance [| 1.0; 0.0 |] [| 0.0; 1.0 |])

let test_mixing_ordering () =
  (* Cliques mix almost immediately; paths mix polynomially slower. *)
  let fast = Randwalk.mixing_time (Gen.complete 12) in
  let slow = Randwalk.mixing_time (Gen.path 12) in
  match (fast, slow) with
  | Some f, Some s ->
    Alcotest.(check bool) "clique fast" true (f <= 4);
    Alcotest.(check bool) "path slower" true (s > f)
  | _ -> Alcotest.fail "both should mix"

let test_mixing_disconnected () =
  let g = Support.of_edges ~nodes:[ 9 ] [ (0, 1) ] in
  Alcotest.(check (option int)) "never mixes" None (Randwalk.mixing_time ~max_steps:50 g)

let test_absent_start_rejected () =
  Alcotest.check_raises "absent start"
    (Invalid_argument "Randwalk.mixing_time: start 7 is not a node") (fun () ->
      ignore (Randwalk.mixing_time ~starts:[ 0; 7 ] (Gen.path 4)))

let test_expander_vs_cycle () =
  let rng = Random.State.make [| 12 |] in
  let exp_g = Gen.random_h_graph ~rng 64 3 in
  let cyc = Gen.cycle 64 in
  match (Randwalk.mixing_time exp_g, Randwalk.mixing_time cyc) with
  | Some e, Some c -> Alcotest.(check bool) "expander mixes much faster" true (e * 4 < c)
  | _ -> Alcotest.fail "both should mix"

let suite =
  [
    ( "randwalk",
      [
        Alcotest.test_case "stationary distribution" `Quick test_stationary;
        Alcotest.test_case "step preserves mass" `Quick test_step_preserves_mass;
        Alcotest.test_case "tv distance" `Quick test_tv_distance;
        Alcotest.test_case "mixing ordering" `Quick test_mixing_ordering;
        Alcotest.test_case "disconnected never mixes" `Quick test_mixing_disconnected;
        Alcotest.test_case "expander vs cycle" `Quick test_expander_vs_cycle;
        Alcotest.test_case "absent start rejected" `Quick test_absent_start_rejected;
      ] );
  ]
