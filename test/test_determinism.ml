(* End-to-end determinism regression: the replay/conformance invariant
   that xlint (lint/) enforces statically, checked dynamically.  An
   E13-style repair — robust BFS-echo collection plus robust election —
   is run twice from the same seeds under an adversarial asynchronous
   schedule with a lossy fault plan, and the two runs must produce
   identical message transcripts and identical stats.  A future
   determinism break (global RNG, hash-order escape, wall-clock read)
   fails this test even if every lint rule misses it. *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Netsim = Xheal_distributed.Netsim
module Msg = Xheal_distributed.Msg
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Election = Xheal_distributed.Election
module Bfs_echo = Xheal_distributed.Bfs_echo
module Pricing = Xheal_distributed.Pricing
module Cost = Xheal_core.Cost
module Failure_detector = Xheal_distributed.Failure_detector
module Detect = Xheal_fault.Detect

let rng seed = Random.State.make [| seed |]

type event = { at : int; src : int; dst : int; msg : Msg.t }

let pp_event ppf e =
  Format.fprintf ppf "t=%d %d->%d %a" e.at e.src e.dst Msg.pp e.msg

let event = Alcotest.testable pp_event (fun a b -> a = b)

let stats =
  Alcotest.testable
    (fun ppf (s : Netsim.stats) ->
      Format.fprintf ppf
        "rounds=%d messages=%d words=%d converged=%b dropped=%d duplicated=%d delayed=%d"
        s.rounds s.messages s.words s.converged s.dropped s.duplicated s.delayed)
    (fun (a : Netsim.stats) b -> a = b)

let plan () = Fault_plan.make ~seed:77 ~drop:0.12 ~duplicate:0.08 ~delay:0.2 ~max_delay:3 ()
let schedule () = Schedule.async ~seed:904 ~fairness:4

(* One full repair attempt with the message transcript recorded. *)
let bfs_collection () =
  let graph = Gen.connected_er ~rng:(rng 2026) 24 0.18 in
  let net = Netsim.create () in
  let get = Bfs_echo.install_robust net ~graph ~root:0 in
  let transcript = ref [] in
  let trace ~now ~src ~dst msg = transcript := { at = now; src; dst; msg } :: !transcript in
  let stats =
    Netsim.run ~max_rounds:4_000 ~plan:(plan ()) ~grace:8 ~schedule:(schedule ()) ~trace net
  in
  (List.rev !transcript, stats, get ())

let election () =
  let net = Netsim.create () in
  let get = Election.install_robust ~rng:(rng 5) net (List.init 16 Fun.id) in
  let transcript = ref [] in
  let trace ~now ~src ~dst msg = transcript := { at = now; src; dst; msg } :: !transcript in
  let stats =
    Netsim.run ~max_rounds:4_000 ~plan:(plan ()) ~grace:8 ~schedule:(schedule ()) ~trace net
  in
  (List.rev !transcript, stats, get ())

let check_identical name run check_result =
  let t1, s1, r1 = run () in
  let t2, s2, r2 = run () in
  Alcotest.(check bool) (name ^ ": transcript non-trivial") true (List.length t1 > 10);
  Alcotest.(check (list event)) (name ^ ": transcripts identical") t1 t2;
  Alcotest.check stats (name ^ ": stats identical") s1 s2;
  check_result r1 r2

let test_bfs_transcript () =
  check_identical "bfs-echo" bfs_collection (fun r1 r2 ->
      Alcotest.(check (option (list int))) "collected identical" r1 r2)

let test_election_transcript () =
  check_identical "election" election (fun r1 r2 ->
      Alcotest.(check (option int)) "leader identical" r1 r2)

(* The composite repair pipeline (election + cloud build + splice
   accounting) re-run from the same seeds must agree on aggregate
   stats too — this is the user-facing repair surface. *)
let test_repair_stats () =
  let run () =
    Pricing.primary_build ~rng:(rng 11) ~plan:(plan ()) ~schedule:(schedule ())
      ~max_rounds:4_000 ~d:2 ~neighbors:(List.init 20 Fun.id) ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "repair stats identical" true (a = b);
  Alcotest.(check bool) "repair converged" true a.Cost.m_converged

(* The detection loop under loss, random delay and an asynchronous
   schedule: the failure detector is message-driven, so every suspicion
   and refutation follows from what the faulty network delivered, and
   all of it derives from the seeds. The same seeds must replay the
   whole detection byte for byte. *)
let test_detector_async_replay () =
  let plan = Fault_plan.make ~seed:77 ~drop:0.12 ~delay:0.2 ~max_delay:3 () in
  let schedule = Schedule.async ~seed:904 ~fairness:4 in
  let group = [ 0; 1; 2; 3; 4; 5 ] in
  let clique = List.map (fun u -> (u, List.filter (fun v -> v <> u) group)) group in
  let run () =
    Failure_detector.run ~plan ~schedule ~config:(Detect.make ~seed:5 ()) ~victim:0
      ~crash_at:9 ~peers:clique ()
  in
  let s1, o1 = run () in
  let s2, o2 = run () in
  Alcotest.check stats "detector stats replay" s1 s2;
  Alcotest.(check bool) "detector outcome replays" true (o1 = o2);
  Alcotest.(check bool) "crash detected under loss and async delay" true
    o1.Detect.detected

(* End to end: detector trigger + lossy async network through the whole
   engine, twice from the same seeds — same healed graph, same bill. *)
let test_detector_engine_replay () =
  let d = Xheal_core.Config.default.Xheal_core.Config.d in
  let run () =
    let g0 = Gen.random_regular ~rng:(rng 41) 20 4 in
    let plan = Fault_plan.make ~seed:42 ~drop:0.08 () in
    let schedule = Schedule.async ~seed:43 ~fairness:2 in
    let backend = Xheal_distributed.Pricing.backend ~seed:44 ~d () in
    let eng = Xheal_core.Xheal.create ~plan ~schedule ~backend ~rng:(rng 45) g0 in
    let atk = rng 46 in
    for _ = 1 to 4 do
      let nodes = Graph.nodes (Xheal_core.Xheal.graph eng) in
      let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
      Xheal_core.Xheal.delete
        ~trigger:(Xheal_core.Xheal.Detector (Detect.make ~seed:3 ()))
        eng v
    done;
    let g = Xheal_core.Xheal.graph eng in
    ( List.sort Int.compare (Graph.nodes g),
      List.sort Xheal_graph.Edge.compare (Graph.edges g),
      Xheal_core.Xheal.totals eng )
  in
  let n1, e1, t1 = run () in
  let n2, e2, t2 = run () in
  Alcotest.(check bool) "healed graphs identical" true (n1 = n2 && e1 = e2);
  Alcotest.(check bool) "cost totals identical" true (t1 = t2);
  Alcotest.(check int) "all four deletions landed" 4 t1.Xheal_core.Cost.deletions

(* Slot-layout independence: the full engine + backend-priced pipeline
   re-run from the same seeds, but with the seed graph built in the
   opposite order, must delete the same victims, heal to the same graph,
   charge the same totals, and trace its priced protocols to
   byte-identical Chrome-trace exports. The engine's network and black
   subgraph are copies of the seed graph (Graph.copy in Xheal.create),
   so every iter_*/fold_* order inside it differs between the two runs. *)
let pipeline relayout =
  let rng = rng 314 in
  let seed_graph = relayout (Gen.random_regular ~rng 20 4) in
  let engine_obs = Xheal_obs.Scope.create () in
  let net_obs = Xheal_obs.Scope.create () in
  let backend =
    Xheal_distributed.Pricing.backend ~obs:net_obs ~max_rounds:4_000 ~seed:317 ~d:2 ()
  in
  let eng =
    Xheal_core.Xheal.create ~obs:engine_obs ~backend ~rng:(Random.State.make [| 315 |])
      seed_graph
  in
  let atk = Random.State.make [| 316 |] in
  for _ = 1 to 8 do
    let nodes = Graph.nodes (Xheal_core.Xheal.graph eng) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    Xheal_core.Xheal.delete eng v
  done;
  ( Xheal_core.Xheal.graph eng,
    Xheal_core.Xheal.totals eng,
    Xheal_obs.Chrome_trace.to_string engine_obs.Xheal_obs.Scope.tracer,
    Xheal_obs.Chrome_trace.to_string net_obs.Xheal_obs.Scope.tracer )

let test_layout_independence () =
  let ga, ta, ea, na = pipeline Fun.id in
  let gb, tb, eb, nb = pipeline Test_graph.rebuilt_in_reverse in
  Alcotest.(check bool) "slot layouts differ" true
    (Test_graph.slot_order ga <> Test_graph.slot_order gb);
  Alcotest.(check bool) "healed graphs equal" true (Graph.equal ga gb);
  Alcotest.(check bool) "healed graphs non-trivial" true (Graph.num_edges ga > 0);
  Alcotest.(check bool) "cost totals identical" true (ta = tb);
  Alcotest.(check bool) "priced repairs converged" true
    (ta.Xheal_core.Cost.unconverged = 0 && ta.Xheal_core.Cost.total_messages > 0);
  Alcotest.(check string) "engine trace byte-identical" ea eb;
  Alcotest.(check string) "protocol trace byte-identical" na nb;
  Alcotest.(check bool) "protocol trace non-trivial" true (String.length na > 200)

let suite =
  [
    ( "e2e-determinism",
      [
        Alcotest.test_case "bfs-echo transcript replays bit-identically" `Quick
          test_bfs_transcript;
        Alcotest.test_case "election transcript replays bit-identically" `Quick
          test_election_transcript;
        Alcotest.test_case "composite repair stats replay identically" `Quick
          test_repair_stats;
        Alcotest.test_case "pipeline is slot-layout-independent" `Quick
          test_layout_independence;
        Alcotest.test_case "detection replays under the async schedule" `Quick
          test_detector_async_replay;
        Alcotest.test_case "detector-triggered engine replays byte-identically" `Quick
          test_detector_engine_replay;
      ] );
  ]
