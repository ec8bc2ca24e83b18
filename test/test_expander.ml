module Sampler = Xheal_expander.Sampler
module Hamilton = Xheal_expander.Hamilton
module Hgraph = Xheal_expander.Hgraph
module Verify = Xheal_expander.Verify
module Graph = Xheal_graph.Graph
module Traversal = Xheal_graph.Traversal

let rng () = Random.State.make [| 13 |]

(* ---------------- Sampler ---------------- *)

let test_sampler_basics () =
  let s = Sampler.of_list [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check int) "dedup size" 4 (Sampler.size s);
  Alcotest.(check bool) "mem" true (Sampler.mem s 4);
  Alcotest.(check bool) "add existing" false (Sampler.add s 3);
  Alcotest.(check bool) "remove" true (Sampler.remove s 3);
  Alcotest.(check bool) "remove twice" false (Sampler.remove s 3);
  Alcotest.(check (list int)) "sorted list" [ 1; 4; 5 ] (Sampler.to_list s)

let test_sampler_sampling () =
  let s = Sampler.of_list [ 10; 20 ] in
  let r = rng () in
  for _ = 1 to 50 do
    match Sampler.sample ~rng:r s with
    | Some x when x = 10 || x = 20 -> ()
    | _ -> Alcotest.fail "sample outside set"
  done;
  for _ = 1 to 50 do
    match Sampler.sample_other ~rng:r s 10 with
    | Some 20 -> ()
    | _ -> Alcotest.fail "sample_other must avoid the excluded element"
  done;
  Alcotest.(check (option int)) "other of singleton" None
    (Sampler.sample_other ~rng:r (Sampler.of_list [ 7 ]) 7);
  Alcotest.(check (option int)) "sample empty" None (Sampler.sample ~rng:r (Sampler.create ()))

(* Keys range over 0..40 and adds and removes are equally likely, so
   the set settles near 20 elements and crosses the 16 at which the
   sampler switches between scanning and its position table, in both
   directions. A reference array with swap-remove is the model: after
   every operation [sample] and [sample_other] must draw what the same
   draws read from the reference, which pins the element order. *)
let prop_sampler_model =
  QCheck.Test.make ~name:"sampler agrees with a set model" ~count:80
    QCheck.(list_of_size Gen.(int_range 50 400) (pair bool (int_bound 40)))
    (fun ops ->
      let s = Sampler.create () in
      let model = Array.make 41 0 and len = ref 0 in
      let index x =
        let rec go i = if i = !len then -1 else if model.(i) = x then i else go (i + 1) in
        go 0
      in
      let r = Random.State.make [| 31 |] and r' = Random.State.make [| 31 |] in
      let draw () = if !len = 0 then None else Some model.(Random.State.int r' !len) in
      let draw_other x =
        let i = index x in
        if i < 0 then draw ()
        else if !len <= 1 then None
        else
          let j = Random.State.int r' (!len - 1) in
          Some model.(if j >= i then j + 1 else j)
      in
      List.for_all
        (fun (add, x) ->
          let i = index x in
          let reported =
            if add then begin
              if i < 0 then begin
                model.(!len) <- x;
                incr len
              end;
              Sampler.add s x = (i < 0)
            end
            else begin
              if i >= 0 then begin
                decr len;
                model.(i) <- model.(!len)
              end;
              Sampler.remove s x = (i >= 0)
            end
          in
          reported
          && Sampler.size s = !len
          && Sampler.mem s x = add
          && Sampler.sample ~rng:r s = draw ()
          && Sampler.sample_other ~rng:r s x = draw_other x)
        ops)

(* ---------------- Hamilton rings ---------------- *)

let check_ring c =
  match Hamilton.check c with Ok () -> () | Error e -> Alcotest.failf "ring broken: %s" e

let test_ring_of_permutation () =
  let c = Hamilton.of_permutation [ 3; 1; 4; 5 ] in
  check_ring c;
  Alcotest.(check int) "succ follows order" 1 (Hamilton.succ c 3);
  Alcotest.(check int) "wraps" 3 (Hamilton.succ c 5);
  Alcotest.(check int) "pred wraps" 5 (Hamilton.pred c 3);
  Alcotest.(check int) "edges of 4-ring" 4 (List.length (Hamilton.edges c))

let test_ring_degenerate () =
  let c1 = Hamilton.of_permutation [ 9 ] in
  check_ring c1;
  Alcotest.(check int) "fixed point" 9 (Hamilton.succ c1 9);
  Alcotest.(check (list (pair int int))) "no self edge" []
    (List.map Xheal_graph.Edge.endpoints (Hamilton.edges c1));
  let c2 = Hamilton.of_permutation [ 1; 2 ] in
  check_ring c2;
  Alcotest.(check int) "2-ring single edge" 1 (List.length (Hamilton.edges c2))

let test_ring_insert_delete () =
  let c = Hamilton.of_permutation [ 0; 1; 2 ] in
  Hamilton.insert_after c ~anchor:0 10;
  check_ring c;
  Alcotest.(check int) "spliced in" 10 (Hamilton.succ c 0);
  Alcotest.(check int) "splice preserves rest" 1 (Hamilton.succ c 10);
  Hamilton.delete c 10;
  check_ring c;
  Alcotest.(check int) "splice out restores" 1 (Hamilton.succ c 0);
  Hamilton.delete c 0;
  Hamilton.delete c 1;
  check_ring c;
  Alcotest.(check int) "down to fixed point" 2 (Hamilton.succ c 2);
  Hamilton.delete c 2;
  check_ring c;
  Alcotest.(check int) "empty" 0 (Hamilton.size c)

let test_ring_duplicate_insert_rejected () =
  let c = Hamilton.of_permutation [ 0; 1 ] in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Hamilton.insert_random: node already on ring") (fun () ->
      Hamilton.insert_random ~rng:(rng ()) c 1)

let prop_ring_random_ops =
  QCheck.Test.make ~name:"rings survive random insert/delete mixes" ~count:60
    QCheck.(list (pair bool (int_bound 12)))
    (fun ops ->
      let r = rng () in
      let c = Hamilton.of_permutation [ 100 ] in
      List.iter
        (fun (ins, x) ->
          if ins then (if not (Hamilton.mem c x) then Hamilton.insert_random ~rng:r c x)
          else Hamilton.delete c x)
        ops;
      Hamilton.check c = Ok ())

(* ---------------- H-graphs ---------------- *)

let check_h h =
  match Hgraph.check h with Ok () -> () | Error e -> Alcotest.failf "hgraph broken: %s" e

let test_hgraph_create () =
  let h = Hgraph.create ~rng:(rng ()) ~d:3 (List.init 12 Fun.id) in
  check_h h;
  Alcotest.(check int) "d" 3 (Hgraph.d h);
  let g = Hgraph.to_graph h in
  Alcotest.(check bool) "degree bounded by kappa" true (Graph.max_degree g <= 6);
  Alcotest.(check bool) "degree at least 2" true (Graph.min_degree g >= 2);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check bool) "multiplicity bounded by d" true (Hgraph.max_multiplicity h <= 3)

let test_hgraph_insert_delete () =
  let r = rng () in
  let h = Hgraph.create ~rng:r ~d:2 [ 0; 1; 2; 3 ] in
  Hgraph.insert ~rng:r h 9;
  check_h h;
  Alcotest.(check bool) "member" true (Hgraph.mem h 9);
  Alcotest.(check int) "size" 5 (Hgraph.size h);
  Hgraph.delete h 1;
  check_h h;
  Alcotest.(check bool) "gone" false (Hgraph.mem h 1);
  Alcotest.(check (list int)) "members" [ 0; 2; 3; 9 ] (Hgraph.members h);
  Alcotest.check_raises "duplicate insert" (Invalid_argument "Hgraph.insert: already a member")
    (fun () -> Hgraph.insert ~rng:r h 9)

let test_hgraph_rebuild () =
  let r = rng () in
  let h = Hgraph.create ~rng:r ~d:2 (List.init 10 Fun.id) in
  let before = Hgraph.members h in
  Hgraph.rebuild ~rng:r h;
  check_h h;
  Alcotest.(check (list int)) "members preserved" before (Hgraph.members h)

let test_hgraph_expander_quality () =
  let h = Hgraph.create ~rng:(rng ()) ~d:3 (List.init 100 Fun.id) in
  let report = Verify.inspect h in
  Alcotest.(check bool) "connected" true report.Verify.connected;
  Alcotest.(check bool) "spectral gap large" true (report.Verify.lambda2 > 0.5)

let test_churn_preserves_expansion () =
  Alcotest.(check bool) "survives churn" true
    (Verify.expansion_survives_churn ~rng:(rng ()) ~n:60 ~d:3 ~steps:150 ~min_lambda2:0.4)

let prop_hgraph_churn_consistent =
  QCheck.Test.make ~name:"hgraph stays consistent under churn" ~count:25
    QCheck.(int_range 0 200)
    (fun seed ->
      let r = Random.State.make [| seed |] in
      let h = Hgraph.create ~rng:r ~d:2 (List.init 8 Fun.id) in
      Verify.churn ~rng:r ~steps:60 h;
      Hgraph.check h = Ok ())

let suite =
  [
    ( "sampler",
      [
        Alcotest.test_case "basics" `Quick test_sampler_basics;
        Alcotest.test_case "sampling" `Quick test_sampler_sampling;
        QCheck_alcotest.to_alcotest prop_sampler_model;
      ] );
    ( "hamilton",
      [
        Alcotest.test_case "of_permutation" `Quick test_ring_of_permutation;
        Alcotest.test_case "degenerate sizes" `Quick test_ring_degenerate;
        Alcotest.test_case "insert/delete splice" `Quick test_ring_insert_delete;
        Alcotest.test_case "duplicate insert rejected" `Quick test_ring_duplicate_insert_rejected;
        QCheck_alcotest.to_alcotest prop_ring_random_ops;
      ] );
    ( "hgraph",
      [
        Alcotest.test_case "create" `Quick test_hgraph_create;
        Alcotest.test_case "insert/delete" `Quick test_hgraph_insert_delete;
        Alcotest.test_case "rebuild" `Quick test_hgraph_rebuild;
        Alcotest.test_case "expander quality" `Quick test_hgraph_expander_quality;
        Alcotest.test_case "churn preserves expansion" `Quick test_churn_preserves_expansion;
        QCheck_alcotest.to_alcotest prop_hgraph_churn_consistent;
      ] );
  ]
