module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Spectral = Xheal_linalg.Spectral
module Lanczos = Xheal_linalg.Lanczos
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

(* Closed-form λ₂ and normalized λ₂ on both sides of the 128-node
   dense/Lanczos threshold. Q_d: 2 and 2/d. Cycle C_n: 2 - 2cos(2π/n)
   and half that. K{a,a}: a and 1. Star on n nodes: 1 and 1. Path P_n:
   2 - 2cos(π/n) and 1 - cos(π/(n-1)). *)
let check_closed_form name g ~meth ~l2 ~l2n =
  let s = Spectral.analyze g in
  Alcotest.(check bool) (name ^ " method") true (s.Spectral.method_used = meth);
  checkf 1e-9 (name ^ " lambda2") l2 s.Spectral.lambda2;
  checkf 1e-9 (name ^ " normalized lambda2") l2n s.Spectral.lambda2_normalized

let cycle_l2 n = 2.0 -. (2.0 *. cos (2.0 *. pi /. float_of_int n))

let test_lanczos_agrees_with_dense () =
  check_closed_form "Q7" (Gen.hypercube 7) ~meth:`Dense ~l2:2.0 ~l2n:(2.0 /. 7.0);
  check_closed_form "cycle 128" (Gen.cycle 128) ~meth:`Dense ~l2:(cycle_l2 128)
    ~l2n:(cycle_l2 128 /. 2.0);
  check_closed_form "cycle 129" (Gen.cycle 129) ~meth:`Lanczos ~l2:(cycle_l2 129)
    ~l2n:(cycle_l2 129 /. 2.0);
  check_closed_form "Q8" (Gen.hypercube 8) ~meth:`Lanczos ~l2:2.0 ~l2n:0.25;
  check_closed_form "cycle 200" (Gen.cycle 200) ~meth:`Lanczos ~l2:(cycle_l2 200)
    ~l2n:(cycle_l2 200 /. 2.0);
  check_closed_form "K{70,70}" (Gen.complete_bipartite 70 70) ~meth:`Lanczos ~l2:70.0 ~l2n:1.0;
  check_closed_form "star 300" (Gen.star 300) ~meth:`Lanczos ~l2:1.0 ~l2n:1.0

let test_lanczos_small_gap () =
  (* Long path: tightly clustered spectrum, needs restarting. *)
  let n = 150 in
  check_closed_form "path-150" (Gen.path n) ~meth:`Lanczos
    ~l2:(2.0 -. (2.0 *. cos (pi /. float_of_int n)))
    ~l2n:(1.0 -. cos (pi /. float_of_int (n - 1)))

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

(* The largest Laplacian eigenvalue of Q4 is 2·4 = 8. The Krylov
   budget, 16, spans the whole space, so one pass is exact. *)
let test_lanczos_largest () =
  let g = Gen.hypercube 4 in
  let rng = Random.State.make [| 4 |] in
  let lam, _ =
    Lanczos.largest ~rng ~orth:[] (Graph.num_nodes g) (Laplacian.matvec (Laplacian.combinatorial g))
  in
  checkf 1e-9 "Q4 largest" 8.0 lam

let test_lanczos_deflated () =
  let l = Laplacian.combinatorial (Gen.complete 6) in
  let rng = Random.State.make [| 8 |] in
  (* All non-null eigenvalues of K6's Laplacian are 6. *)
  let lam, v = Lanczos.largest ~rng ~orth:[ Vec.ones 6 ] 6 (Laplacian.matvec l) in
  checkf 1e-9 "deflated largest" 6.0 lam;
  checkf 1e-9 "Ritz vector orthogonal to the deflated ones" 0.0 (Vec.dot v (Vec.ones 6))

(* ------------------------------------------------------------------ *)
(* Bit pin of everything the λ₂ path feeds: on seeded graphs either   *)
(* side of the dense/Lanczos threshold (128 nodes), the hex floats of *)
(* λ₂, normalized λ₂, every Fiedler score, the sweep values and the   *)
(* sweep's best cut, exact h and φ up to 16 nodes, and the lazy-walk  *)
(* mixing time. A rewrite of the Laplacian, the eigensolvers, the     *)
(* score sweep or the walk must keep every digest.                    *)

(* A connected graph on [n] nodes whose ids run past 10^6 over several
   radix digits and whose slot order is scrambled: nodes are added in
   descending id order and joined by a random Hamilton cycle and [n/2]
   chords; then [n/2] churn steps each remove a random node and give
   its freed slot to a fresh id that takes over the removed node's
   neighbours, plus one more chord. *)
let churned ~rng n =
  let id i = 1_000_000 + (i * 65_537) in
  let g = Graph.create ~capacity:2 () in
  for i = n - 1 downto 0 do
    Graph.add_node g (id i)
  done;
  let cycle = Array.of_list (Gen.shuffle_list ~rng (List.init n Fun.id)) in
  Array.iteri (fun k u -> ignore (Graph.add_edge g (id u) (id cycle.((k + 1) mod n)))) cycle;
  let live = Array.init n Fun.id in
  let chord () =
    let u = live.(Random.State.int rng n) and v = live.(Random.State.int rng n) in
    if u <> v then ignore (Graph.add_edge g (id u) (id v))
  in
  for _ = 1 to n / 2 do
    chord ()
  done;
  for k = 0 to (n / 2) - 1 do
    let i = Random.State.int rng n in
    let nbrs = Graph.neighbors g (id live.(i)) in
    Graph.remove_node g (id live.(i));
    live.(i) <- n + k;
    Graph.add_node g (id live.(i));
    List.iter (fun v -> ignore (Graph.add_edge g (id live.(i)) v)) nbrs;
    chord ()
  done;
  g

let spectral_bits g =
  let hex = Printf.sprintf "%h" in
  let s = Spectral.analyze g in
  let nodes = Graph.nodes g in
  let best, best_h = Cuts.sweep_best_cut g ~scores:s.Spectral.fiedler in
  let exact =
    if List.length nodes > 16 then []
    else [ hex (Cuts.exact_expansion g); hex (Cuts.exact_conductance g) ]
  in
  String.concat ";"
    ([
       (match s.Spectral.method_used with
       | `Dense -> "dense"
       | `Lanczos -> "lanczos"
       | `Disconnected -> "disconnected"
       | `Trivial -> "trivial");
       hex s.Spectral.lambda2;
       hex s.Spectral.lambda2_normalized;
       String.concat "," (List.map (fun u -> hex (s.Spectral.fiedler u)) nodes);
       hex (Cuts.sweep_expansion g ~scores:s.Spectral.fiedler);
       hex (Cuts.sweep_conductance g ~scores:s.Spectral.fiedler);
       String.concat "," (List.map string_of_int best);
       hex best_h;
     ]
    @ exact
    @ [
        (match Xheal_linalg.Randwalk.mixing_time g with
        | Some t -> string_of_int t
        | None -> "none");
      ])

let test_spectral_bits () =
  let rng seed = Random.State.make [| seed; 0x5bec |] in
  let graphs =
    [
      ("h-12", Gen.random_h_graph ~rng:(rng 1) 12 2);
      ("churned-16", churned ~rng:(rng 2) 16);
      ("er-60", Gen.connected_er ~rng:(rng 3) 60 0.1);
      ("churned-100", churned ~rng:(rng 4) 100);
      ("h-128", Gen.random_h_graph ~rng:(rng 5) 128 2);
      ("h-129", Gen.random_h_graph ~rng:(rng 6) 129 2);
      ("grid-12x12", Gen.grid 12 12);
      ("path-150", Gen.path 150);
      ("churned-300", churned ~rng:(rng 7) 300);
      ("h-600", Gen.random_h_graph ~rng:(rng 8) 600 3);
    ]
  in
  let got = List.map (fun (name, g) -> (name, Digest.to_hex (Digest.string (spectral_bits g)))) graphs in
  Alcotest.(check (list (pair string string)))
    "digests"
    [
      ("h-12", "3411db8f89447262e727a88d760f1378");
      ("churned-16", "2e2288a3608370a23abc15b67b5926ea");
      ("er-60", "0a782bfdaf268ad9fd773dda83b5f605");
      ("churned-100", "74c995766c6c6e3ea8d21eeba0635252");
      ("h-128", "5dd388295e3e93188fc91c7266ad02da");
      ("h-129", "16c0cf045d7c95a9ad78329d44b2eb59");
      ("grid-12x12", "e39d8383f6017266d61a99f32d828230");
      ("path-150", "851428222b3fc1064b38c6309c6270aa");
      ("churned-300", "d5e59e74c2b511194adc34bbb9d2de4d");
      ("h-600", "862ca5a8427502392a5cb94cc44cae09");
    ]
    got

let suite =
  [
    ( "spectral",
      [
        Alcotest.test_case "closed-form spectra" `Quick test_closed_forms;
        Alcotest.test_case "trivial/disconnected" `Quick test_trivial_and_disconnected;
        Alcotest.test_case "lanczos vs dense" `Quick test_lanczos_agrees_with_dense;
        Alcotest.test_case "lanczos small gap (path-150)" `Quick test_lanczos_small_gap;
        Alcotest.test_case "cheeger inequality" `Quick test_cheeger_inequality;
        Alcotest.test_case "fiedler separates barbell" `Quick test_fiedler_separates_barbell;
        Alcotest.test_case "lanczos largest (Q4)" `Quick test_lanczos_largest;
        Alcotest.test_case "lanczos deflated (K6)" `Quick test_lanczos_deflated;
        Alcotest.test_case "golden bits on seeded graphs" `Quick test_spectral_bits;
      ] );
  ]
