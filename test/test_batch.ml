module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Traversal = Xheal_graph.Traversal
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Cloud = Xheal_core.Cloud
module Unionfind = Xheal_core.Unionfind

let rng () = Random.State.make [| 71 |]

let assert_ok eng =
  match Xheal.check eng with Ok () -> () | Error e -> Alcotest.failf "invariant: %s" e

(* ---------- Unionfind ---------- *)

let test_uf_basics () =
  let uf = Unionfind.create () in
  Unionfind.union uf 1 2;
  Unionfind.union uf 3 4;
  Alcotest.(check bool) "same class" true (Unionfind.same uf 1 2);
  Alcotest.(check bool) "different classes" false (Unionfind.same uf 1 3);
  Unionfind.union uf 2 3;
  Alcotest.(check bool) "transitive merge" true (Unionfind.same uf 1 4);
  Alcotest.(check int) "one group" 1 (List.length (Unionfind.groups uf))

let test_uf_groups () =
  let uf = Unionfind.create () in
  Unionfind.union uf "a" "b";
  ignore (Unionfind.find uf "c");
  Unionfind.union uf "d" "e";
  let gs = List.map (List.sort compare) (Unionfind.groups uf) in
  Alcotest.(check int) "three groups" 3 (List.length gs);
  Alcotest.(check bool) "singleton kept" true (List.mem [ "c" ] gs);
  Alcotest.(check bool) "pairs kept" true (List.mem [ "a"; "b" ] gs && List.mem [ "d"; "e" ] gs)

let prop_uf_matches_model =
  QCheck.Test.make ~name:"unionfind agrees with reachability model" ~count:60
    QCheck.(list (pair (int_bound 12) (int_bound 12)))
    (fun unions ->
      let uf = Unionfind.create () in
      List.iter (fun (a, b) -> Unionfind.union uf a b) unions;
      (* Model: connectivity in the union graph. *)
      let g = Graph.create () in
      List.iter
        (fun (a, b) ->
          Graph.add_node g a;
          Graph.add_node g b;
          if a <> b then ignore (Graph.add_edge g a b))
        unions;
      Graph.fold_nodes
        (fun a acc ->
          acc
          && Graph.fold_nodes
               (fun b acc ->
                 acc
                 && Unionfind.same uf a b
                    = List.mem b (Traversal.component_of g a))
               g true)
        g true)

(* ---------- delete_many ---------- *)

let test_batch_trivia () =
  let eng = Xheal.create ~rng:(rng ()) (Gen.cycle 6) in
  Xheal.delete_many eng [];
  Xheal.delete_many eng [ 99; 98 ] (* unknown ids ignored *);
  assert_ok eng;
  Alcotest.(check int) "nothing removed" 6 (Graph.num_nodes (Xheal.graph eng))

let test_batch_singleton_delegates () =
  let eng = Xheal.create ~rng:(rng ()) (Gen.star 8) in
  Xheal.delete_many eng [ 0; 0 ] (* duplicate collapses to single deletion *);
  assert_ok eng;
  Alcotest.(check bool) "healed like a single delete" true
    (Traversal.is_connected (Xheal.graph eng));
  match Xheal.last_report eng with
  | Some r -> Alcotest.(check bool) "single-delete case tag" true (r.Cost.case = Cost.Case1)
  | None -> Alcotest.fail "report expected"

let test_batch_star_core () =
  (* Delete the hub and three leaves at once. *)
  let eng = Xheal.create ~rng:(rng ()) (Gen.star 12) in
  Xheal.delete_many eng [ 0; 1; 2; 3 ];
  assert_ok eng;
  Alcotest.(check bool) "connected" true (Traversal.is_connected (Xheal.graph eng));
  Alcotest.(check int) "survivors" 8 (Graph.num_nodes (Xheal.graph eng));
  let t = Xheal.totals eng in
  Alcotest.(check int) "counts four deletions" 4 t.Cost.deletions;
  match Xheal.last_report eng with
  | Some r -> Alcotest.(check bool) "batch tag" true (r.Cost.case = Cost.Batch 4)
  | None -> Alcotest.fail "report expected"

let test_batch_disjoint_regions () =
  (* Two far-apart holes in a cycle: two regions, each repaired, the
     whole ring still connected. *)
  let eng = Xheal.create ~rng:(rng ()) (Gen.cycle 20) in
  Xheal.delete_many eng [ 0; 10 ];
  assert_ok eng;
  Alcotest.(check bool) "connected" true (Traversal.is_connected (Xheal.graph eng));
  Alcotest.(check int) "two repair clouds" 2 (Xheal.num_clouds eng)

let test_batch_adjacent_victims_one_region () =
  (* A contiguous run of victims on a cycle is one damage region: the
     survivors around the hole are joined by one repair. *)
  let eng = Xheal.create ~rng:(rng ()) (Gen.cycle 12) in
  Xheal.delete_many eng [ 0; 1; 2; 3 ];
  assert_ok eng;
  Alcotest.(check bool) "connected" true (Traversal.is_connected (Xheal.graph eng));
  Alcotest.(check int) "survivors" 8 (Graph.num_nodes (Xheal.graph eng))

let test_batch_inside_clouds () =
  (* Build a cloud via a hub deletion, then batch-delete several cloud
     members together with black-edge nodes. *)
  let g = Gen.star 16 in
  ignore (Graph.add_edge g 1 100);
  ignore (Graph.add_edge g 2 101);
  let eng = Xheal.create ~rng:(rng ()) g in
  Xheal.delete eng 0;
  Xheal.delete_many eng [ 1; 2; 3 ];
  assert_ok eng;
  Alcotest.(check bool) "connected" true (Traversal.is_connected (Xheal.graph eng));
  Alcotest.(check bool) "pendants reconnected" true
    (Graph.degree (Xheal.graph eng) 100 >= 1 && Graph.degree (Xheal.graph eng) 101 >= 1)

let test_batch_bills_leader_handoff () =
  (* The hub's deletion builds one primary cloud over the leaves; a
     batch that kills its leader and one more member splices the cloud
     once and bills the handoff once, as a single deletion would. *)
  let eng = Xheal.create ~rng:(rng ()) (Gen.star 16) in
  Xheal.delete eng 0;
  let c =
    match Xheal.clouds eng with [ c ] -> c | _ -> Alcotest.fail "one primary cloud expected"
  in
  let leader = Option.get (Cloud.leader c) in
  let other = List.find (fun u -> u <> leader) (Cloud.members c) in
  Xheal.delete_many eng [ leader; other ];
  assert_ok eng;
  let r = Option.get (Xheal.last_report eng) in
  let count label = List.length (List.filter (fun p -> p.Cost.label = label) r.Cost.phases) in
  Alcotest.(check int) "one splice" 1 (count "fix-cloud");
  Alcotest.(check int) "one handoff" 1 (count "leader-handoff")

let test_batch_whole_graph_but_two () =
  let eng = Xheal.create ~rng:(rng ()) (Gen.complete 8) in
  Xheal.delete_many eng [ 0; 1; 2; 3; 4; 5 ];
  assert_ok eng;
  Alcotest.(check int) "two left" 2 (Graph.num_nodes (Xheal.graph eng));
  Alcotest.(check bool) "still connected" true (Traversal.is_connected (Xheal.graph eng))

(* Three random batches of [batch] victims on a seeded 26-node ER graph;
   true when every batch keeps the engine invariants and connectivity. *)
let batches_sound (seed, batch) =
  let r = Random.State.make [| seed |] in
  let eng = Xheal.create ~rng:r (Gen.connected_er ~rng:r 26 0.18) in
  let ok = ref true in
  for _ = 1 to 3 do
    if !ok then begin
      let nodes = Graph.nodes (Xheal.graph eng) in
      if List.length nodes > batch + 4 then begin
        let victims =
          List.filteri (fun i _ -> i < batch) (Gen.shuffle_list ~rng:r nodes)
        in
        Xheal.delete_many eng victims;
        ok :=
          Xheal.check eng = Ok ()
          && Traversal.is_connected (Xheal.graph eng)
      end
    end
  done;
  !ok

let prop_batch_sound =
  QCheck.Test.make ~name:"random batches keep invariants + connectivity" ~count:40
    QCheck.(pair (int_range 0 5000) (int_range 2 6))
    batches_sound

(* The property's inputs that once isolated a node: a victim that is a
   singleton primary's only member and a secondary's bridge, with a
   degree-1 neighbour. Its region must be stitched to the primary that
   re-anchors the secondary, as Case 2.2 does for a single deletion. *)
let test_batch_anchor_regions () =
  List.iter
    (fun (seed, batch) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, batch %d stays connected" seed batch)
        true (batches_sound (seed, batch)))
    [ (1470, 4); (3293, 3); (3805, 4); (4314, 4); (4770, 5) ]

let prop_batch_degree_bound =
  QCheck.Test.make ~name:"batches respect the degree bound vs pre-attack graph" ~count:25
    QCheck.(int_range 0 2000)
    (fun seed ->
      let r = Random.State.make [| seed |] in
      let initial = Gen.connected_er ~rng:r 24 0.2 in
      let eng = Xheal.create ~rng:r initial in
      let nodes = Graph.nodes (Xheal.graph eng) in
      let victims = List.filteri (fun i _ -> i < 5) nodes in
      Xheal.delete_many eng victims;
      (* No insertions: G' is the initial graph. *)
      let rep =
        Xheal_metrics.Degree.report ~kappa:(Xheal.kappa eng) ~healed:(Xheal.graph eng)
          ~reference:initial
      in
      rep.Xheal_metrics.Degree.bound_ok)

let suite =
  [
    ( "unionfind",
      [
        Alcotest.test_case "basics" `Quick test_uf_basics;
        Alcotest.test_case "groups" `Quick test_uf_groups;
        QCheck_alcotest.to_alcotest prop_uf_matches_model;
      ] );
    ( "batch-deletion",
      [
        Alcotest.test_case "empty/unknown batches" `Quick test_batch_trivia;
        Alcotest.test_case "singleton delegates to delete" `Quick test_batch_singleton_delegates;
        Alcotest.test_case "hub + leaves at once" `Quick test_batch_star_core;
        Alcotest.test_case "disjoint regions" `Quick test_batch_disjoint_regions;
        Alcotest.test_case "adjacent victims merge regions" `Quick test_batch_adjacent_victims_one_region;
        Alcotest.test_case "victims inside clouds" `Quick test_batch_inside_clouds;
        Alcotest.test_case "batch down to two nodes" `Quick test_batch_whole_graph_but_two;
        Alcotest.test_case "a batch that kills a leader bills the handoff" `Quick
          test_batch_bills_leader_handoff;
        Alcotest.test_case "bridge victims join their anchor's region" `Quick
          test_batch_anchor_regions;
        QCheck_alcotest.to_alcotest prop_batch_sound;
        QCheck_alcotest.to_alcotest prop_batch_degree_bound;
      ] );
  ]
