module Cloud = Xheal_core.Cloud
module Edge = Xheal_graph.Edge

let rng () = Random.State.make [| 17 |]

let make ?(kind = Cloud.Primary) ?(d = 2) ?(half_rebuild = true) nodes =
  Cloud.make ~rng:(rng ()) ~id:1 ~kind ~d ~half_rebuild nodes

let check c = match Cloud.check c with Ok () -> () | Error e -> Alcotest.failf "cloud: %s" e

let test_small_is_clique () =
  (* kappa = 4, threshold 5. *)
  let c = make [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "clique mode" true (Cloud.structure_kind c = `Clique);
  Alcotest.(check int) "clique edges" 6 (Edge.Set.cardinal (Cloud.desired_edges c));
  check c

let test_large_is_expander () =
  let c = make (List.init 12 Fun.id) in
  Alcotest.(check bool) "expander mode" true (Cloud.structure_kind c = `Expander);
  let edges = Cloud.desired_edges c in
  (* 2d-regular multigraph: at most d*n simple edges, at least n (connected union of cycles). *)
  Alcotest.(check bool) "edge count sane" true
    (Edge.Set.cardinal edges <= 24 && Edge.Set.cardinal edges >= 12);
  check c

let test_add_member_upgrades () =
  let c = make [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check bool) "starts clique (size=threshold)" true (Cloud.structure_kind c = `Clique);
  Cloud.add_member ~rng:(rng ()) c 5;
  Alcotest.(check bool) "upgrades to expander" true (Cloud.structure_kind c = `Expander);
  Alcotest.(check int) "size" 6 (Cloud.size c);
  check c

let test_remove_member_downgrades () =
  let c = make (List.init 7 Fun.id) in
  Alcotest.(check bool) "expander" true (Cloud.structure_kind c = `Expander);
  ignore (Cloud.remove_member ~rng:(rng ()) c 6);
  ignore (Cloud.remove_member ~rng:(rng ()) c 5);
  Alcotest.(check bool) "back to clique at threshold" true (Cloud.structure_kind c = `Clique);
  Alcotest.(check (list int)) "members" [ 0; 1; 2; 3; 4 ] (Cloud.members c);
  check c

let test_remove_nonmember () =
  let c = make [ 0; 1; 2 ] in
  Alcotest.(check bool) "no-op" false (Cloud.remove_member ~rng:(rng ()) c 99);
  check c

let test_leadership () =
  let c = make [ 0; 1; 2; 3 ] in
  (match Cloud.leader c with
  | Some l -> Alcotest.(check bool) "leader member" true (Cloud.mem c l)
  | None -> Alcotest.fail "leadership missing");
  (* The vice-leader, a member distinct from the leader, is Cloud.check's. *)
  check c;
  (* Kill the leader repeatedly; the cloud must always re-elect. *)
  let r = rng () in
  for _ = 1 to 3 do
    match Cloud.leader c with
    | Some l -> ignore (Cloud.remove_member ~rng:r c l)
    | None -> Alcotest.fail "no leader"
  done;
  Alcotest.(check int) "one member left" 1 (Cloud.size c);
  Alcotest.(check bool) "still has leader" true (Cloud.leader c <> None);
  check c

let test_leader_flag_on_removal () =
  let c = make [ 0; 1; 2 ] in
  let l = Option.get (Cloud.leader c) in
  Alcotest.(check bool) "reports leader loss" true (Cloud.remove_member ~rng:(rng ()) c l);
  let other = List.hd (Cloud.members c) in
  Alcotest.(check bool) "non-leader removal" false
    (Cloud.remove_member ~rng:(rng ()) c (if Cloud.leader c = Some other then List.nth (Cloud.members c) 1 else other))

let test_current_cache () =
  let c = make [ 0; 1; 2 ] in
  Alcotest.(check bool) "starts empty" true (Edge.Set.is_empty (Cloud.current c));
  Cloud.set_current c (Cloud.desired_edges c);
  Cloud.purge_node_from_current c 0;
  Alcotest.(check int) "purged incident" 1 (Edge.Set.cardinal (Cloud.current c))

let test_half_rebuild_toggle () =
  (* With half_rebuild off, grinding an expander down must still keep the
     structure consistent (only the re-randomization is skipped). *)
  let c = make ~half_rebuild:false (List.init 20 Fun.id) in
  let r = rng () in
  for i = 0 to 12 do
    ignore (Cloud.remove_member ~rng:r c i)
  done;
  check c;
  Alcotest.(check int) "members left" 7 (Cloud.size c)

let test_duplicate_member_rejected () =
  let c = make [ 0; 1; 2 ] in
  Alcotest.check_raises "duplicate" (Invalid_argument "Cloud.add_member: already a member")
    (fun () -> Cloud.add_member ~rng:(rng ()) c 1)

let prop_cloud_random_churn =
  QCheck.Test.make ~name:"cloud stays consistent under membership churn" ~count:40
    QCheck.(pair (int_range 0 1000) (list (pair bool (int_bound 25))))
    (fun (seed, ops) ->
      let r = Random.State.make [| seed |] in
      let c = Cloud.make ~rng:r ~id:9 ~kind:Cloud.Primary ~d:2 ~half_rebuild:true [ 100; 101; 102 ] in
      List.iter
        (fun (add, x) ->
          if add then (if not (Cloud.mem c x) then Cloud.add_member ~rng:r c x)
          else ignore (Cloud.remove_member ~rng:r c x))
        ops;
      Cloud.check c = Ok ())

let suite =
  [
    ( "cloud",
      [
        Alcotest.test_case "small cloud is a clique" `Quick test_small_is_clique;
        Alcotest.test_case "large cloud is an H-graph" `Quick test_large_is_expander;
        Alcotest.test_case "growth upgrades structure" `Quick test_add_member_upgrades;
        Alcotest.test_case "shrinkage downgrades structure" `Quick test_remove_member_downgrades;
        Alcotest.test_case "remove non-member" `Quick test_remove_nonmember;
        Alcotest.test_case "leadership maintenance" `Quick test_leadership;
        Alcotest.test_case "leader-loss flag" `Quick test_leader_flag_on_removal;
        Alcotest.test_case "current-edge cache" `Quick test_current_cache;
        Alcotest.test_case "half-rebuild toggle" `Quick test_half_rebuild_toggle;
        Alcotest.test_case "duplicate member rejected" `Quick test_duplicate_member_rejected;
        QCheck_alcotest.to_alcotest prop_cloud_random_churn;
      ] );
  ]
