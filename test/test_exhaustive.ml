(* Exhaustive verification of the paper's guarantees on small instances:
   EVERY connected labeled graph on 5 nodes (728 of them), for EVERY
   choice of deleted node, with exact (enumerated) expansion — no
   sampling, no spectral approximation. This is the strongest executable
   form of Lemma 1 / Theorem 2 available at this scale. *)

module Graph = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal
module Cuts = Xheal_graph.Cuts
module Xheal = Xheal_core.Xheal
module Config = Xheal_core.Config
module Cloud = Xheal_core.Cloud
module Cost = Xheal_core.Cost

let nodes5 = [ 0; 1; 2; 3; 4 ]

let pairs =
  List.concat_map (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) nodes5) nodes5

let graph_of_mask mask =
  let g = Graph.create () in
  List.iter (Graph.add_node g) nodes5;
  List.iteri (fun i (u, v) -> if mask land (1 lsl i) <> 0 then ignore (Graph.add_edge g u v)) pairs;
  g

let connected_graphs =
  lazy
    (List.filter_map
       (fun mask ->
         let g = graph_of_mask mask in
         if Traversal.is_connected g then Some g else None)
       (List.init (1 lsl List.length pairs) Fun.id))

let for_all_cases f =
  let count = ref 0 in
  List.iter
    (fun g ->
      List.iter
        (fun v ->
          incr count;
          f (Graph.copy g) v)
        nodes5)
    (Lazy.force connected_graphs);
  !count

let test_universe_size () =
  (* Known count of connected labeled graphs on 5 vertices. *)
  Alcotest.(check int) "728 connected graphs" 728 (List.length (Lazy.force connected_graphs))

(* Lemma 1, checked exhaustively and exactly — with the constant the
   paper's own Case-(b) arithmetic supports. The proof bounds the healed
   expansion by min(h(G), α − 1) where α is the expansion of the repair
   structure. When the deleted node has degree ≥ 3 the structure is at
   least a K₃ (α ≥ 2), so h(G₁) ≥ min(1, h(G₀)) as claimed. When the
   degree is ≤ 2 the "expander" is a single edge (α = 1) and the claimed
   c ≥ 1 does NOT follow: on exactly 60 of the 3640 five-node cases the
   expansion halves (h 1.0 → 0.5, matching the formula). We assert the
   provable form: full bound for degree ≥ 3, half bound always. See
   EXPERIMENTS.md ("Lemma 1 constants") for the discussion. *)
let test_lemma1_expansion_exhaustive () =
  let strict = ref 0 in
  let checked =
    for_all_cases (fun g v ->
        let h0 = Cuts.exact_expansion g in
        let deg = Graph.degree g v in
        let rng = Random.State.make [| 5 * Graph.num_edges g; v |] in
        let eng = Xheal.create ~rng g in
        Xheal.delete eng v;
        let healed = Xheal.graph eng in
        if Graph.num_nodes healed >= 2 then begin
          let h1 = Cuts.exact_expansion healed in
          let target = Float.min 1.0 h0 in
          if h1 +. 1e-9 >= target then incr strict;
          if deg >= 3 && h1 +. 1e-9 < target then
            Alcotest.failf "deg>=3 expansion dropped: m=%d v=%d h0=%f h1=%f" (Graph.num_edges g)
              v h0 h1;
          if h1 +. 1e-9 < target /. 2.0 then
            Alcotest.failf "below half bound: m=%d v=%d h0=%f h1=%f" (Graph.num_edges g) v h0 h1
        end
        else incr strict)
  in
  Alcotest.(check int) "cases" (728 * 5) checked;
  (* The strict paper constant holds on 3580 of 3640 cases; every
     violation is a degree-≤2 deletion. *)
  Alcotest.(check int) "strict bound holds outside the K2-cloud corner" 3580 !strict

let test_connectivity_exhaustive () =
  ignore
    (for_all_cases (fun g v ->
         let rng = Random.State.make [| Graph.num_edges g; v |] in
         let eng = Xheal.create ~rng g in
         Xheal.delete eng v;
         if not (Traversal.is_connected (Xheal.graph eng)) then
           Alcotest.failf "disconnected after deleting %d" v;
         match Xheal.check eng with
         | Ok () -> ()
         | Error e -> Alcotest.failf "invariant: %s" e))

let test_degree_bound_exhaustive () =
  (* Theorem 2.1 with kappa = 4: deg <= 4*deg' + 8, and since a single
     Case-1 repair only builds one cloud, the much tighter deg <= deg' +
     kappa holds here; check the theorem bound exactly. *)
  ignore
    (for_all_cases (fun g v ->
         let before u = Graph.degree g u in
         let rng = Random.State.make [| Graph.num_edges g; v; 7 |] in
         let eng = Xheal.create ~rng g in
         Xheal.delete eng v;
         let healed = Xheal.graph eng in
         Graph.iter_nodes
           (fun u ->
             let d' = before u and d = Graph.degree healed u in
             if d > (4 * d') + 8 then
               Alcotest.failf "degree bound broken at %d: %d > 4*%d+8" u d d')
           healed))

(* Two sequential deletions: the induction step of Lemma 2 on every
   6-node wheel-ish graph family would be costly; instead exercise every
   connected 5-node graph with two random-order deletions. *)
let test_two_deletions_exhaustive () =
  ignore
    (for_all_cases (fun g v ->
         let rng = Random.State.make [| Graph.num_edges g; v; 11 |] in
         let eng = Xheal.create ~rng g in
         Xheal.delete eng v;
         let survivors = Graph.nodes (Xheal.graph eng) in
         match survivors with
         | w :: _ ->
           Xheal.delete eng w;
           if not (Traversal.is_connected (Xheal.graph eng)) then
             Alcotest.failf "disconnected after second deletion (%d then %d)" v w;
           (match Xheal.check eng with
           | Ok () -> ()
           | Error e -> Alcotest.failf "invariant after second deletion: %s" e)
         | [] -> ()))

(* Batches over the same universe: every first deletion, then
   [delete_many] of every pair and every triple of the four survivors
   (728 x 5 x 10 = 36 400 cases). Each healed graph must be connected
   with every invariant intact. 8 520 cases end with a secondary
   cloud: a region whose victims were all in clouds that died is
   stitched as a single deletion's Case 2.1 (singleton primaries and a
   secondary), not as Case 1. None combines, so the seeded ownership
   property in test_ownership.ml owns combine coverage. *)
let test_batches_exhaustive () =
  let rec subsets k = function
    | _ when k = 0 -> [ [] ]
    | [] -> []
    | x :: rest -> List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  let cases = ref 0 and secondary = ref 0 and combined = ref 0 in
  ignore
    (for_all_cases (fun g v ->
         let survivors = List.filter (fun u -> u <> v) nodes5 in
         List.iter
           (fun batch ->
             incr cases;
             let rng = Random.State.make [| Graph.num_edges g; v; 17 |] in
             let eng = Xheal.create ~rng g in
             Xheal.delete eng v;
             Xheal.delete_many eng batch;
             if not (Traversal.is_connected (Xheal.graph eng)) then
               Alcotest.failf "disconnected after deleting %d then [%s] (m=%d)" v
                 (String.concat ";" (List.map string_of_int batch))
                 (Graph.num_edges g);
             (match Xheal.check eng with
             | Ok () -> ()
             | Error e -> Alcotest.failf "invariant after batch: %s" e);
             if List.exists (fun c -> Cloud.kind c = Cloud.Secondary) (Xheal.clouds eng) then
               incr secondary;
             if (Xheal.totals eng).Cost.combines > 0 then incr combined)
           (subsets 2 survivors @ subsets 3 survivors)));
  Alcotest.(check int) "cases" 36_400 !cases;
  Alcotest.(check int) "cases ending with a secondary cloud" 8_520 !secondary;
  Alcotest.(check int) "cases that combine" 0 !combined

let test_always_combine_exhaustive () =
  (* The ablation configuration must satisfy the same exhaustive
     connectivity guarantee. *)
  let cfg = { Config.default with Config.secondary_clouds = false } in
  ignore
    (for_all_cases (fun g v ->
         let rng = Random.State.make [| Graph.num_edges g; v; 13 |] in
         let eng = Xheal.create ~cfg ~rng g in
         Xheal.delete eng v;
         if not (Traversal.is_connected (Xheal.graph eng)) then
           Alcotest.failf "always-combine disconnected after deleting %d" v))

(* The same Lemma-1 sweep over all 26704 connected 6-node graphs
   (160224 cases). The strict constant holds except on degree-≤2
   deletions; the degree-≥3 form and the half bound hold everywhere —
   and the worst ratio h₁/min(1,h₀) improves from 0.50 (n=5) to 0.75. *)
let test_lemma1_six_nodes () =
  let nodes6 = List.init 6 Fun.id in
  let pairs6 =
    List.concat_map
      (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) nodes6)
      nodes6
  in
  let strict = ref 0 and total = ref 0 and connected = ref 0 in
  for mask = 0 to (1 lsl List.length pairs6) - 1 do
    let g = Graph.create () in
    List.iter (Graph.add_node g) nodes6;
    List.iteri
      (fun i (u, v) -> if mask land (1 lsl i) <> 0 then ignore (Graph.add_edge g u v))
      pairs6;
    if Traversal.is_connected g then begin
      incr connected;
      let h0 = Cuts.exact_expansion g in
      List.iter
        (fun v ->
          incr total;
          let deg = Graph.degree g v in
          let rng = Random.State.make [| mask; v |] in
          let eng = Xheal.create ~rng (Graph.copy g) in
          Xheal.delete eng v;
          let healed = Xheal.graph eng in
          if Graph.num_nodes healed >= 2 then begin
            let h1 = Cuts.exact_expansion healed in
            let target = Float.min 1.0 h0 in
            if h1 +. 1e-9 >= target then incr strict;
            if deg >= 3 && h1 +. 1e-9 < target then
              Alcotest.failf "n=6 deg>=3 violation: mask=%d v=%d h0=%f h1=%f" mask v h0 h1;
            if h1 +. 1e-9 < 0.75 *. target then
              Alcotest.failf "n=6 below 3/4 bound: mask=%d v=%d h0=%f h1=%f" mask v h0 h1
          end
          else incr strict)
        nodes6
    end
  done;
  Alcotest.(check int) "connected 6-node graphs" 26704 !connected;
  Alcotest.(check int) "cases" 160224 !total;
  Alcotest.(check int) "strict bound outside the K2-cloud corner" 159504 !strict

let suite =
  [
    ( "exhaustive-5-node",
      [
        Alcotest.test_case "universe size" `Quick test_universe_size;
        Alcotest.test_case "Lemma 1 expansion, all graphs x deletions" `Slow
          test_lemma1_expansion_exhaustive;
        Alcotest.test_case "connectivity + invariants, all cases" `Slow
          test_connectivity_exhaustive;
        Alcotest.test_case "degree bound, all cases" `Slow test_degree_bound_exhaustive;
        Alcotest.test_case "two sequential deletions, all cases" `Slow
          test_two_deletions_exhaustive;
        Alcotest.test_case "always-combine connectivity, all cases" `Slow
          test_always_combine_exhaustive;
        Alcotest.test_case "Lemma 1 expansion, all 6-node graphs x deletions" `Slow
          test_lemma1_six_nodes;
        Alcotest.test_case "batches of every pair and triple after each deletion" `Slow
          test_batches_exhaustive;
      ] );
  ]
