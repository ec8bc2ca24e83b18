module Edge = Xheal_graph.Edge

let check = Alcotest.(check bool)

let test_canonical () =
  let e = Edge.make 7 3 in
  Alcotest.(check (pair int int)) "sorted endpoints" (3, 7) (Edge.endpoints e);
  check "equal regardless of order" true (Edge.equal (Edge.make 3 7) (Edge.make 7 3));
  Alcotest.(check int) "src" 3 (Edge.src e);
  Alcotest.(check int) "dst" 7 (Edge.dst e)

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Edge.make: self-loop") (fun () ->
      ignore (Edge.make 5 5))

let test_other () =
  let e = Edge.make 2 1 in
  check "mem lower endpoint" true (Edge.mem e 1);
  check "mem upper endpoint" true (Edge.mem e 2);
  check "mem non-endpoint" false (Edge.mem e 3)

let test_ordering () =
  let sorted = List.sort Edge.compare [ Edge.make 2 9; Edge.make 1 5; Edge.make 1 3 ] in
  Alcotest.(check (list (pair int int)))
    "lexicographic"
    [ (1, 3); (1, 5); (2, 9) ]
    (List.map Edge.endpoints sorted)

let test_set_and_table () =
  let s = Edge.Set.of_list [ Edge.make 1 2; Edge.make 2 1; Edge.make 3 4 ] in
  Alcotest.(check int) "set dedups orientation" 2 (Edge.Set.cardinal s);
  let tbl = Edge.Table.create 4 in
  Edge.Table.replace tbl (Edge.make 8 4) "x";
  check "table lookup via either orientation" true (Edge.Table.mem tbl (Edge.make 4 8))

let suite =
  [
    ( "edge",
      [
        Alcotest.test_case "canonical form" `Quick test_canonical;
        Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
        Alcotest.test_case "other/mem" `Quick test_other;
        Alcotest.test_case "ordering" `Quick test_ordering;
        Alcotest.test_case "set and table keys" `Quick test_set_and_table;
      ] );
  ]
