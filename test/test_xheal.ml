module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Traversal = Xheal_graph.Traversal
module Cuts = Xheal_graph.Cuts
module Xheal = Xheal_core.Xheal
module Cloud = Xheal_core.Cloud
module Config = Xheal_core.Config
module Cost = Xheal_core.Cost

let rng () = Random.State.make [| 37 |]

let engine ?cfg g = Xheal.create ?cfg ~rng:(rng ()) g

let assert_ok eng =
  match Xheal.check eng with Ok () -> () | Error e -> Alcotest.failf "invariant: %s" e

let assert_connected eng =
  Alcotest.(check bool) "connected" true (Traversal.is_connected (Xheal.graph eng))

let kinds eng =
  List.partition (fun c -> Cloud.kind c = Cloud.Primary) (Xheal.clouds eng)

(* ---------- Case 1 ---------- *)

let test_case1_star_hub () =
  let eng = engine (Gen.star 10) in
  Xheal.delete eng 0;
  assert_ok eng;
  assert_connected eng;
  let prim, sec = kinds eng in
  Alcotest.(check int) "one primary cloud" 1 (List.length prim);
  Alcotest.(check int) "no secondary" 0 (List.length sec);
  Alcotest.(check (list int)) "cloud covers the leaves" (List.init 9 (fun i -> i + 1))
    (Cloud.members (List.hd prim));
  Alcotest.(check bool) "degrees bounded by kappa" true
    (Graph.max_degree (Xheal.graph eng) <= Xheal.kappa eng);
  match Xheal.last_report eng with
  | Some r -> Alcotest.(check string) "case tag" "case-1 (all black)" (Cost.case_to_string r.Cost.case)
  | None -> Alcotest.fail "expected a report"

let test_case1_small_neighborhood_clique () =
  (* 3 neighbours <= kappa+1: clique repair. *)
  let eng = engine (Gen.star 4) in
  Xheal.delete eng 0;
  assert_ok eng;
  let g = Xheal.graph eng in
  Alcotest.(check int) "triangle edges" 3 (Graph.num_edges g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let test_case1_degree_one_and_isolated () =
  let g = Graph.of_edges ~nodes:[ 9 ] [ (0, 1); (1, 2) ] in
  let eng = engine g in
  Xheal.delete eng 9 (* isolated: nothing to do *);
  assert_ok eng;
  Xheal.delete eng 0 (* degree 1: neighbour just dropped *);
  assert_ok eng;
  Alcotest.(check int) "no clouds created" 0 (Xheal.num_clouds eng);
  Alcotest.(check bool) "edge 1-2 intact" true (Graph.has_edge (Xheal.graph eng) 1 2)

let test_insert_is_black_and_free () =
  let eng = engine (Gen.path 3) in
  Xheal.insert eng ~node:77 ~neighbors:[ 0; 2; 999 ];
  assert_ok eng;
  let g = Xheal.graph eng in
  Alcotest.(check bool) "edge to 0" true (Graph.has_edge g 77 0);
  Alcotest.(check bool) "unknown neighbour ignored" false (Graph.has_node g 999);
  Alcotest.(check int) "black degree" 2 (Xheal.black_degree eng 77);
  (match Xheal.last_report eng with
  | Some r ->
    Alcotest.(check int) "insertion costs nothing" 0 r.Cost.messages;
    Alcotest.(check bool) "tagged insertion" true (r.Cost.case = Cost.Insertion)
  | None -> Alcotest.fail "report expected");
  Alcotest.check_raises "duplicate insert" (Invalid_argument "Xheal.insert: node already present")
    (fun () -> Xheal.insert eng ~node:77 ~neighbors:[]);
  (* A negative id is refused by the graph store before the engine
     changes anything. *)
  let seq () = Option.map (fun r -> r.Cost.seq) (Xheal.last_report eng) in
  let seq_before = seq () in
  Alcotest.check_raises "negative id" (Invalid_argument "Graph.add_node: negative node id")
    (fun () -> Xheal.insert eng ~node:(-3) ~neighbors:[ 0 ]);
  Alcotest.(check int) "no node added" 4 (Graph.num_nodes (Xheal.graph eng));
  Alcotest.(check (option int)) "no sequence number spent" seq_before (seq ());
  assert_ok eng

let test_delete_missing_raises () =
  let eng = engine (Gen.path 3) in
  Alcotest.check_raises "missing" (Invalid_argument "Xheal.delete: node not present") (fun () ->
      Xheal.delete eng 55)

(* ---------- Case 2.1 ---------- *)

(* Two stars whose hubs share an extra node x: deleting both hubs puts x
   in two primary clouds; deleting x then exercises the secondary-cloud
   stitch. Node layout: hub1=0 leaves 1-4; hub2=10 leaves 11-14; x=20
   black-connected to both hubs. *)
let two_cloud_setup () =
  let g = Graph.create () in
  List.iter (fun l -> ignore (Graph.add_edge g 0 l)) [ 1; 2; 3; 4 ];
  List.iter (fun l -> ignore (Graph.add_edge g 10 l)) [ 11; 12; 13; 14 ];
  ignore (Graph.add_edge g 20 0);
  ignore (Graph.add_edge g 20 10);
  (* Keep the two halves joined in G' via an extra backbone edge so the
     graph starts connected beyond the hubs. *)
  ignore (Graph.add_edge g 4 11);
  let eng = engine g in
  Xheal.delete eng 0;
  Xheal.delete eng 10;
  assert_ok eng;
  eng

let test_case21_intra_cloud_deletion () =
  let eng = engine (Gen.star 10) in
  Xheal.delete eng 0;
  (* Delete a cloud member: all its edges are colored; a single cloud is
     affected, so the repair is purely internal. *)
  Xheal.delete eng 5;
  assert_ok eng;
  assert_connected eng;
  let prim, sec = kinds eng in
  Alcotest.(check int) "still one primary" 1 (List.length prim);
  Alcotest.(check int) "no secondary needed" 0 (List.length sec);
  (match Xheal.last_report eng with
  | Some r -> Alcotest.(check bool) "case 2.1" true (r.Cost.case = Cost.Case21)
  | None -> Alcotest.fail "report expected")

let test_case21_two_clouds_make_secondary () =
  let eng = two_cloud_setup () in
  Alcotest.(check int) "two primaries" 2 (Xheal.num_clouds eng);
  Xheal.delete eng 20;
  assert_ok eng;
  assert_connected eng;
  let prim, sec = kinds eng in
  Alcotest.(check int) "primaries kept" 2 (List.length prim);
  Alcotest.(check int) "one secondary" 1 (List.length sec);
  let s = List.hd sec in
  Alcotest.(check int) "two bridges" 2 (Cloud.size s);
  List.iter
    (fun b -> Alcotest.(check bool) "bridge not free" false (Xheal.is_free eng b))
    (Cloud.members s)

let test_case21_black_neighbor_singleton () =
  (* Star plus a pendant y attached to a leaf; delete the hub, then the
     leaf: the pendant must be stitched back via a singleton cloud. *)
  let g = Gen.star 8 in
  ignore (Graph.add_edge g 1 100);
  let eng = engine g in
  Xheal.delete eng 0;
  Xheal.delete eng 1;
  assert_ok eng;
  assert_connected eng;
  Alcotest.(check bool) "pendant survived" true (Graph.has_node (Xheal.graph eng) 100);
  Alcotest.(check bool) "pendant reconnected" true (Graph.degree (Xheal.graph eng) 100 >= 1);
  let _, sec = kinds eng in
  Alcotest.(check int) "secondary stitched" 1 (List.length sec)

(* ---------- Case 2.2 ---------- *)

let test_case22_bridge_replacement () =
  let eng = two_cloud_setup () in
  Xheal.delete eng 20;
  let _, sec = kinds eng in
  let s = List.hd sec in
  let bridge = List.hd (Cloud.members s) in
  Xheal.delete eng bridge;
  assert_ok eng;
  assert_connected eng;
  (match Xheal.last_report eng with
  | Some r -> Alcotest.(check bool) "case 2.2" true (r.Cost.case = Cost.Case22)
  | None -> Alcotest.fail "report expected");
  let _, sec = kinds eng in
  Alcotest.(check int) "secondary survives" 1 (List.length sec);
  Alcotest.(check int) "bridge replaced" 2 (Cloud.size (List.hd sec))

let test_case22_cascade () =
  (* Keep deleting bridge nodes; the structure must stay sound even when
     free nodes run out and combines fire. *)
  let eng = two_cloud_setup () in
  Xheal.delete eng 20;
  for _ = 1 to 5 do
    let _, sec = kinds eng in
    match sec with
    | s :: _ when Cloud.size s > 0 ->
      Xheal.delete eng (List.hd (Cloud.members s));
      assert_ok eng;
      assert_connected eng
    | _ -> ()
  done;
  assert_ok eng;
  assert_connected eng

(* ---------- combine paths ---------- *)

let two_cloud_setup_graph () =
  let g = Graph.create () in
  List.iter (fun l -> ignore (Graph.add_edge g 0 l)) [ 1; 2; 3; 4 ];
  List.iter (fun l -> ignore (Graph.add_edge g 10 l)) [ 11; 12; 13; 14 ];
  ignore (Graph.add_edge g 20 0);
  ignore (Graph.add_edge g 20 10);
  ignore (Graph.add_edge g 4 11);
  g

let test_always_combine_config () =
  let cfg = { Config.default with Config.secondary_clouds = false } in
  let eng = engine ~cfg (two_cloud_setup_graph ()) in
  Xheal.delete eng 0;
  Xheal.delete eng 10;
  Xheal.delete eng 20;
  assert_ok eng;
  assert_connected eng;
  let prim, sec = kinds eng in
  Alcotest.(check int) "no secondary clouds ever" 0 (List.length sec);
  Alcotest.(check int) "merged into one primary" 1 (List.length prim);
  match Xheal.last_report eng with
  | Some r -> Alcotest.(check bool) "combine flagged" true r.Cost.combined
  | None -> Alcotest.fail "report expected"

let test_combines_happen_under_pressure () =
  (* A long pure-deletion grind must eventually hit the no-free-nodes
     path; totals record it. *)
  let r = rng () in
  let eng = engine (Gen.connected_er ~rng:r 40 0.12) in
  let alive () = Graph.nodes (Xheal.graph eng) in
  while List.length (alive ()) > 6 do
    let ns = alive () in
    Xheal.delete eng (List.nth ns (Random.State.int r (List.length ns)));
    assert_ok eng
  done;
  assert_connected eng;
  Alcotest.(check bool) "combines occurred" true ((Xheal.totals eng).Cost.combines > 0)

(* A combine retargets every bridge of the absorbed primaries to the
   combined cloud, so a secondary that only linked absorbed primaries
   now links that cloud to itself; the combine must dissolve every such
   secondary, not just the first. A bridge always lies in the primary it
   represents (Registry.check), so a secondary whose members each lie in
   exactly one primary, the same one for all, links only that primary.
   Such a secondary may also arise without a combine (a bridge whose
   primary vanished), so only one that was not already linking a single
   primary before a combining deletion counts. On eight of the seeds
   0..199 a combine makes two or more secondaries redundant at once. *)
let self_linked_secondaries eng =
  let primaries_of u =
    List.filter_map
      (fun c -> if Cloud.kind c = Cloud.Primary then Some (Cloud.id c) else None)
      (Xheal.clouds_of_node eng u)
  in
  List.filter_map
    (fun s ->
      if Cloud.kind s <> Cloud.Secondary || Cloud.size s < 2 then None
      else
        match List.sort_uniq compare (List.map primaries_of (Cloud.members s)) with
        | [ [ _ ] ] -> Some (Cloud.id s)
        | _ -> None)
    (Xheal.clouds eng)

let test_combine_prunes_every_redundant_secondary () =
  for seed = 0 to 199 do
    let g = Gen.random_regular ~rng:(Random.State.make [| seed |]) 24 4 in
    let eng = Xheal.create ~rng:(Random.State.make [| seed + 1 |]) g in
    let atk = Random.State.make [| seed + 2 |] in
    for _ = 1 to 16 do
      let nodes = Graph.nodes (Xheal.graph eng) in
      let before = self_linked_secondaries eng in
      Xheal.delete eng (List.nth nodes (Random.State.int atk (List.length nodes)));
      match Xheal.last_report eng with
      | Some r when r.Cost.combined ->
        List.iter
          (fun id ->
            if not (List.mem id before) then
              Alcotest.failf "seed %d: combine left secondary %d linking one primary" seed id)
          (self_linked_secondaries eng)
      | _ -> ()
    done
  done

(* ---------- guarantees on a scenario ---------- *)

let test_star_expansion_constant () =
  let eng = engine (Gen.star 17) in
  Xheal.delete eng 0;
  let exact = Cuts.exact_expansion (Xheal.graph eng) in
  Alcotest.(check bool) "constant expansion" true (exact >= 0.5)

let test_factory_roundtrip () =
  let f = Xheal.factory () in
  let inst = f.Xheal_core.Healer.make ~rng:(rng ()) (Gen.star 6) in
  inst.Xheal_core.Healer.delete 0;
  Alcotest.(check bool) "healer interface works" true
    (Traversal.is_connected (inst.Xheal_core.Healer.graph ()));
  match inst.Xheal_core.Healer.check () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "factory check: %s" e

let suite =
  [
    ( "xheal-engine",
      [
        Alcotest.test_case "case 1: star hub" `Quick test_case1_star_hub;
        Alcotest.test_case "case 1: small clique repair" `Quick test_case1_small_neighborhood_clique;
        Alcotest.test_case "case 1: trivial degrees" `Quick test_case1_degree_one_and_isolated;
        Alcotest.test_case "insertion is free and black" `Quick test_insert_is_black_and_free;
        Alcotest.test_case "delete missing raises" `Quick test_delete_missing_raises;
        Alcotest.test_case "case 2.1: intra-cloud" `Quick test_case21_intra_cloud_deletion;
        Alcotest.test_case "case 2.1: secondary stitch" `Quick test_case21_two_clouds_make_secondary;
        Alcotest.test_case "case 2.1: black-neighbour singleton" `Quick test_case21_black_neighbor_singleton;
        Alcotest.test_case "case 2.2: bridge replacement" `Quick test_case22_bridge_replacement;
        Alcotest.test_case "case 2.2: cascade" `Quick test_case22_cascade;
        Alcotest.test_case "always-combine config" `Quick test_always_combine_config;
        Alcotest.test_case "combines under pressure" `Quick test_combines_happen_under_pressure;
        Alcotest.test_case "combine prunes every redundant secondary" `Quick
          test_combine_prunes_every_redundant_secondary;
        Alcotest.test_case "star expansion constant" `Quick test_star_expansion_constant;
        Alcotest.test_case "healer factory" `Quick test_factory_roundtrip;
      ] );
  ]
