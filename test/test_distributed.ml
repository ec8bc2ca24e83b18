module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Netsim = Xheal_distributed.Netsim
module Msg = Xheal_distributed.Msg
module Election = Xheal_distributed.Election
module Bfs_echo = Xheal_distributed.Bfs_echo
module Cloud_build = Xheal_distributed.Cloud_build
module Pricing = Xheal_distributed.Pricing
module Cost = Xheal_core.Cost

let rng () = Random.State.make [| 61 |]

(* ---------- Netsim semantics ---------- *)

let test_netsim_delivery_next_round () =
  let net = Netsim.create () in
  let received_at = ref (-1) in
  Netsim.add_node net 1 (fun ~now ~inbox:_ ->
      if now = 0 then [ (2, Msg.Hello) ] else []);
  Netsim.add_node net 2 (fun ~now ~inbox ->
      if inbox <> [] then received_at := now;
      []);
  let stats = Netsim.run net in
  Alcotest.(check int) "delivered in round 1" 1 !received_at;
  Alcotest.(check int) "one message" 1 stats.Netsim.messages;
  Alcotest.(check int) "two rounds" 2 stats.Netsim.rounds;
  Alcotest.(check bool) "quiesced on its own" true stats.Netsim.converged

let test_netsim_drops_to_unknown () =
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now = 0 then [ (99, Msg.Hello) ] else []);
  let stats = Netsim.run net in
  Alcotest.(check int) "not counted as a send" 0 stats.Netsim.messages;
  Alcotest.(check int) "but counted as dropped" 1 stats.Netsim.dropped;
  Alcotest.(check bool) "still converged" true stats.Netsim.converged

let test_netsim_sender_identity () =
  let net = Netsim.create () in
  let senders = ref [] in
  Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now = 0 then [ (3, Msg.Hello) ] else []);
  Netsim.add_node net 2 (fun ~now ~inbox:_ -> if now = 0 then [ (3, Msg.Hello) ] else []);
  Netsim.add_node net 3 (fun ~now:_ ~inbox ->
      senders := List.map fst inbox @ !senders;
      []);
  ignore (Netsim.run net);
  Alcotest.(check (list int)) "both senders seen" [ 1; 2 ] (List.sort Int.compare !senders)

let test_netsim_duplicate_node_rejected () =
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now:_ ~inbox:_ -> []);
  Alcotest.check_raises "dup" (Invalid_argument "Netsim.add_node: duplicate id") (fun () ->
      Netsim.add_node net 1 (fun ~now:_ ~inbox:_ -> []))

(* Both engines, and the pricing backend when it is built, reject a
   negative [max_rounds] or [grace] (and the backend a [d] below 1)
   instead of running with a clamped or unreported value. *)
let test_netsim_rejects_negative_budgets () =
  let net () =
    let net = Netsim.create () in
    Netsim.add_node net 1 (fun ~now:_ ~inbox:_ -> []);
    net
  in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ())) in
  raises "Netsim.run: max_rounds must be >= 0" (fun () -> Netsim.run ~max_rounds:(-3) (net ()));
  raises "Netsim.run: grace must be >= 0" (fun () -> Netsim.run ~grace:(-2) (net ()));
  raises "Netsim.run_reference: max_rounds must be >= 0" (fun () ->
      Netsim.run_reference ~max_rounds:(-3) (net ()));
  raises "Netsim.run_reference: grace must be >= 0" (fun () ->
      Netsim.run_reference ~grace:(-2) (net ()));
  raises "Pricing.backend: max_rounds must be >= 0" (fun () ->
      Pricing.backend ~max_rounds:(-1) ~d:2 ());
  raises "Pricing.backend: d must be >= 1" (fun () -> Pricing.backend ~d:0 ())

(* Every counter in [stats] belongs to one run: running the same net
   again reports the same numbers, not a running total. *)
let test_netsim_stats_per_run () =
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now = 0 then [ (2, Msg.Hello) ] else []);
  Netsim.add_node net 2 (fun ~now:_ ~inbox:_ -> []);
  let first = Netsim.run net in
  let second = Netsim.run net in
  Alcotest.(check int) "one message" 1 first.Netsim.messages;
  Alcotest.(check int) "one word" 1 first.Netsim.words;
  Alcotest.(check bool) "second run reports the same stats" true (first = second)

(* ---------- Election ---------- *)

let test_election_singleton () =
  let _, leader = Election.run ~rng:(rng ()) [ 42 ] in
  Alcotest.(check (option int)) "self-elected" (Some 42) leader

let test_election_valid_leader () =
  let parts = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let stats, leader = Election.run ~rng:(rng ()) parts in
  (match leader with
  | Some l -> Alcotest.(check bool) "leader is a participant" true (List.mem l parts)
  | None -> Alcotest.fail "no leader");
  Alcotest.(check bool) "log rounds" true (stats.Netsim.rounds <= 6);
  Alcotest.(check bool) "linear-ish messages" true (stats.Netsim.messages <= 4 * List.length parts)

let test_election_randomized () =
  (* Private coins: different seeds elect different leaders eventually. *)
  let parts = List.init 16 Fun.id in
  let leaders =
    List.init 12 (fun i ->
        Option.get (snd (Election.run ~rng:(Random.State.make [| i |]) parts)))
  in
  Alcotest.(check bool) "not constant" true
    (List.length (List.sort_uniq Int.compare leaders) > 1)

let test_election_rounds_scale () =
  let r = rng () in
  let rounds m = (fst (Election.run ~rng:r (List.init m Fun.id))).Netsim.rounds in
  Alcotest.(check bool) "logarithmic growth" true (rounds 256 <= rounds 16 + 5)

(* ---------- BFS echo ---------- *)

let test_bfs_collects_component () =
  let g = Graph.of_edges ~nodes:[ 99 ] [ (0, 1); (1, 2); (2, 3) ] in
  let _, collected = Bfs_echo.run ~graph:g ~root:1 () in
  Alcotest.(check (option (list int))) "component only" (Some [ 0; 1; 2; 3 ]) collected

let test_bfs_isolated_root () =
  let g = Graph.of_edges ~nodes:[ 5 ] [ (0, 1) ] in
  let _, collected = Bfs_echo.run ~graph:g ~root:5 () in
  Alcotest.(check (option (list int))) "just the root" (Some [ 5 ]) collected

let test_bfs_rounds_track_diameter () =
  let path = Gen.path 20 in
  let s_path, _ = Bfs_echo.run ~graph:path ~root:0 () in
  let clique = Gen.complete 20 in
  let s_clique, _ = Bfs_echo.run ~graph:clique ~root:0 () in
  Alcotest.(check bool) "path slower than clique" true
    (s_path.Netsim.rounds > s_clique.Netsim.rounds);
  Alcotest.(check bool) "path ~ 2*diam" true (s_path.Netsim.rounds <= 2 * 19 + 4)

(* ---------- Cloud build ---------- *)

let test_cloud_build_small_clique () =
  let stats, edges = Cloud_build.run ~rng:(rng ()) ~d:2 ~leader:0 ~members:[ 0; 1; 2 ] () in
  Alcotest.(check (list (pair int int))) "triangle" [ (0, 1); (0, 2); (1, 2) ] edges;
  Alcotest.(check bool) "some messages" true (stats.Netsim.messages > 0);
  Alcotest.(check bool) "constant rounds" true (stats.Netsim.rounds <= 4)

let test_cloud_build_expander () =
  let members = List.init 20 Fun.id in
  let _, edges = Cloud_build.run ~rng:(rng ()) ~d:2 ~leader:0 ~members () in
  let g = Graph.of_edges edges in
  Alcotest.(check bool) "connected" true (Xheal_graph.Traversal.is_connected g);
  Alcotest.(check bool) "kappa-regular-ish" true (Graph.max_degree g <= 4);
  Alcotest.check_raises "leader must be member"
    (Invalid_argument "Cloud_build.run: leader must be a member") (fun () ->
      ignore (Cloud_build.run ~rng:(rng ()) ~d:2 ~leader:99 ~members ()))

(* ---------- Composite repairs vs Cost formulas ---------- *)

let test_primary_build_within_formula_budget () =
  let d = 2 in
  List.iter
    (fun n ->
      let s = Pricing.primary_build ~rng:(rng ()) ~d ~neighbors:(List.init n Fun.id) () in
      let er, em = Cost.elect n in
      let br, bm = Cost.distribute ~kappa:(2 * d) n in
      (* Measured protocols include handshakes; allow a small constant
         factor over the closed-form charges. *)
      Alcotest.(check bool)
        (Printf.sprintf "rounds n=%d" n)
        true
        (s.Cost.m_rounds <= (3 * (er + br)) + 6);
      Alcotest.(check bool)
        (Printf.sprintf "messages n=%d" n)
        true
        (s.Cost.m_messages <= 3 * (em + bm + (4 * d * n))))
    [ 4; 16; 64 ]

let test_combine_messages_scale () =
  let r = rng () in
  let m n = (Pricing.combine ~rng:r ~d:2 ~union:(Gen.random_h_graph ~rng:r n 2) ~initiator:0 ()).Cost.m_messages in
  let m32 = m 32 and m128 = m 128 in
  Alcotest.(check bool) "roughly linear growth" true (m128 < 8 * m32 && m128 > 2 * m32)

(* ---------- CONGEST word accounting ---------- *)

let test_msg_sizes () =
  Alcotest.(check int) "hello" 1 (Msg.size_words Msg.Hello);
  Alcotest.(check int) "challenge" 2 (Msg.size_words (Msg.Challenge { rank = 1; candidate = 2 }));
  Alcotest.(check int) "victory carries the roster" 4
    (Msg.size_words (Msg.Victory { leader = 1; members = [ 1; 2; 3 ] }));
  Alcotest.(check int) "edges list" 4 (Msg.size_words (Msg.Edges [ (1, 2); (3, 4) ]));
  Alcotest.(check int) "subtree list" 2 (Msg.size_words (Msg.Subtree [ 5; 6 ]));
  Alcotest.(check int) "empty subtree still a word" 1 (Msg.size_words (Msg.Subtree []))

let test_words_counted () =
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now ~inbox:_ ->
      if now = 0 then [ (2, Msg.Edges [ (1, 2); (1, 3) ]) ] else []);
  Netsim.add_node net 2 (fun ~now:_ ~inbox:_ -> []);
  let stats = Netsim.run net in
  Alcotest.(check int) "one message" 1 stats.Netsim.messages;
  Alcotest.(check int) "four words" 4 stats.Netsim.words

let test_words_dominated_by_lists () =
  (* Election words exceed messages because Victory carries the roster. *)
  let stats, _ = Election.run ~rng:(rng ()) (List.init 32 Fun.id) in
  Alcotest.(check bool) "words > messages" true (stats.Netsim.words > stats.Netsim.messages)

let suite =
  [
    ( "netsim",
      [
        Alcotest.test_case "next-round delivery" `Quick test_netsim_delivery_next_round;
        Alcotest.test_case "drops to unknown nodes" `Quick test_netsim_drops_to_unknown;
        Alcotest.test_case "sender identity" `Quick test_netsim_sender_identity;
        Alcotest.test_case "duplicate node rejected" `Quick test_netsim_duplicate_node_rejected;
        Alcotest.test_case "negative max_rounds and grace rejected" `Quick
          test_netsim_rejects_negative_budgets;
        Alcotest.test_case "stats are per run on a reused net" `Quick test_netsim_stats_per_run;
      ] );
    ( "election",
      [
        Alcotest.test_case "singleton" `Quick test_election_singleton;
        Alcotest.test_case "valid leader" `Quick test_election_valid_leader;
        Alcotest.test_case "randomized winner" `Quick test_election_randomized;
        Alcotest.test_case "rounds scale logarithmically" `Quick test_election_rounds_scale;
      ] );
    ( "bfs-echo",
      [
        Alcotest.test_case "collects exactly the component" `Quick test_bfs_collects_component;
        Alcotest.test_case "isolated root" `Quick test_bfs_isolated_root;
        Alcotest.test_case "rounds track diameter" `Quick test_bfs_rounds_track_diameter;
      ] );
    ( "cloud-build",
      [
        Alcotest.test_case "small clique" `Quick test_cloud_build_small_clique;
        Alcotest.test_case "expander build" `Quick test_cloud_build_expander;
      ] );
    ( "dist-repair",
      [
        Alcotest.test_case "primary build within budget" `Quick test_primary_build_within_formula_budget;
        Alcotest.test_case "combine message scaling" `Quick test_combine_messages_scale;
        Alcotest.test_case "msg word sizes" `Quick test_msg_sizes;
        Alcotest.test_case "netsim counts words" `Quick test_words_counted;
        Alcotest.test_case "list payloads dominate words" `Quick test_words_dominated_by_lists;
      ] );
  ]
