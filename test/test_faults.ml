(* Fault-injection layer: Fault_plan semantics in Netsim, the hardened
   protocol variants under loss/duplication/delay/crash/partition, and
   the converged flag that makes timed-out runs distinguishable from
   finished ones. *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Netsim = Xheal_distributed.Netsim
module Msg = Xheal_distributed.Msg
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Election = Xheal_distributed.Election
module Bfs_echo = Xheal_distributed.Bfs_echo
module Cloud_build = Xheal_distributed.Cloud_build
module Pricing = Xheal_distributed.Pricing
module Backoff = Xheal_distributed.Backoff
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost

let rng seed = Random.State.make [| seed |]

(* ---------- Fault_plan data type ---------- *)

let test_plan_validation () =
  Alcotest.(check bool) "none is none" true (Fault_plan.is_none Fault_plan.none);
  Alcotest.(check bool) "drop plan is not none" false
    (Fault_plan.is_none (Fault_plan.make ~drop:0.1 ()));
  Alcotest.(check bool) "seed alone stays none" true
    (Fault_plan.is_none (Fault_plan.make ~seed:42 ()));
  Alcotest.check_raises "drop out of range"
    (Invalid_argument "Fault_plan.make: drop must be in [0,1]") (fun () ->
      ignore (Fault_plan.make ~drop:1.5 ()));
  Alcotest.check_raises "max_delay >= 1"
    (Invalid_argument "Fault_plan.make: max_delay must be >= 1") (fun () ->
      ignore (Fault_plan.make ~max_delay:0 ()));
  Alcotest.check_raises "NaN rate rejected"
    (Invalid_argument "Fault_plan.make: drop must be in [0,1]") (fun () ->
      ignore (Fault_plan.make ~drop:Float.nan ()));
  Alcotest.check_raises "negative rate rejected"
    (Invalid_argument "Fault_plan.make: duplicate must be in [0,1]") (fun () ->
      ignore (Fault_plan.make ~duplicate:(-0.1) ()));
  Alcotest.check_raises "negative crash round rejected"
    (Invalid_argument "Fault_plan.make: crash round for node 3 is negative") (fun () ->
      ignore (Fault_plan.make ~crashes:[ (3, -1) ] ()));
  Alcotest.check_raises "empty partition window rejected"
    (Invalid_argument "Fault_plan.make: partition until_round 4 must exceed from_round 4")
    (fun () ->
      ignore
        (Fault_plan.make
           ~partitions:[ { Fault_plan.from_round = 4; until_round = 4; cut = [ (0, 1) ] } ]
           ()));
  let p = Fault_plan.make ~drop:0.2 ~crashes:[ (3, 5) ] ()
  in
  Alcotest.(check (option int)) "crash schedule" (Some 5) (Fault_plan.crash_round p 3);
  Alcotest.(check (option int)) "no crash" None (Fault_plan.crash_round p 4);
  Alcotest.(check bool) "reseed keeps knobs" false (Fault_plan.is_none (Fault_plan.reseed p 2))

(* ---------- Netsim under a plan ---------- *)

(* Same protocol, same rng: the explicit none plan must be bit-identical
   to the implicit default — the "plan threading changes nothing" half
   of the acceptance criterion. *)
let test_none_plan_byte_identical () =
  let stats_of ?plan () =
    let net = Netsim.create () in
    let get = Election.install ~rng:(rng 61) net [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
    let s = match plan with None -> Netsim.run net | Some p -> Netsim.run ~plan:p net in
    (s, get ())
  in
  let a, la = stats_of () in
  let b, lb = stats_of ~plan:Fault_plan.none () in
  Alcotest.(check bool) "identical stats" true (a = b);
  Alcotest.(check (option int)) "identical leader" la lb;
  Alcotest.(check bool) "converged" true a.Netsim.converged

let test_max_rounds_reports_nonconvergence () =
  (* A chatterbox that never quiesces: the old simulator returned stats
     indistinguishable from success here. *)
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now:_ ~inbox:_ -> [ (2, Msg.Hello) ]);
  Netsim.add_node net 2 (fun ~now:_ ~inbox:_ -> []);
  let s = Netsim.run ~max_rounds:10 net in
  Alcotest.(check bool) "not converged" false s.Netsim.converged;
  Alcotest.(check int) "stopped at the cap" 10 s.Netsim.rounds;
  (* And a quiescent run still reports success. *)
  let net2 = Netsim.create () in
  Netsim.add_node net2 1 (fun ~now ~inbox:_ -> if now = 0 then [ (1, Msg.Hello) ] else []);
  let s2 = Netsim.run ~max_rounds:10 net2 in
  Alcotest.(check bool) "converged" true s2.Netsim.converged

let test_unknown_destination_counted () =
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now = 0 then [ (99, Msg.Hello) ] else []);
  let s = Netsim.run net in
  Alcotest.(check int) "not a protocol send" 0 s.Netsim.messages;
  Alcotest.(check int) "but traceable" 1 s.Netsim.dropped

let test_drop_all_loses_message () =
  let received = ref false in
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now = 0 then [ (2, Msg.Hello) ] else []);
  Netsim.add_node net 2 (fun ~now:_ ~inbox -> if inbox <> [] then received := true; []);
  let s = Netsim.run ~plan:(Fault_plan.make ~drop:1.0 ()) net in
  Alcotest.(check bool) "never delivered" false !received;
  Alcotest.(check int) "counted sent" 1 s.Netsim.messages;
  Alcotest.(check int) "counted dropped" 1 s.Netsim.dropped;
  Alcotest.(check bool) "still converged (nothing left in flight)" true s.Netsim.converged

let test_duplicate_delivers_twice () =
  let copies = ref 0 in
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now = 0 then [ (2, Msg.Hello) ] else []);
  Netsim.add_node net 2 (fun ~now:_ ~inbox -> copies := !copies + List.length inbox; []);
  let s = Netsim.run ~plan:(Fault_plan.make ~duplicate:1.0 ()) net in
  Alcotest.(check int) "two deliveries" 2 !copies;
  Alcotest.(check int) "one protocol send" 1 s.Netsim.messages;
  Alcotest.(check int) "one duplication" 1 s.Netsim.duplicated

let test_delay_postpones_delivery () =
  let arrived_at = ref (-1) in
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now = 0 then [ (2, Msg.Hello) ] else []);
  Netsim.add_node net 2 (fun ~now ~inbox -> if inbox <> [] then arrived_at := now; []);
  let s = Netsim.run ~plan:(Fault_plan.make ~seed:5 ~delay:1.0 ~max_delay:3 ()) net in
  Alcotest.(check bool) "arrived late" true (!arrived_at >= 2 && !arrived_at <= 4);
  Alcotest.(check int) "counted delayed" 1 s.Netsim.delayed;
  Alcotest.(check bool) "converged" true s.Netsim.converged

let test_crash_silences_node () =
  (* Node 2 echoes every Hello; node 1 pings at rounds 0 and 2. The
     crash at round 3 silences node 2 before the second ping lands. *)
  let echoes = ref 0 in
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now ~inbox ->
      List.iter (fun (_, m) -> if m = Msg.Ack then incr echoes) inbox;
      if now = 0 || now = 2 then [ (2, Msg.Hello) ] else []);
  Netsim.add_node net 2 (fun ~now:_ ~inbox ->
      List.map (fun (src, _) -> (src, Msg.Ack)) inbox);
  let s = Netsim.run ~plan:(Fault_plan.make ~crashes:[ (2, 3) ] ()) net in
  Alcotest.(check int) "only the pre-crash ping echoed" 1 !echoes;
  Alcotest.(check int) "post-crash delivery dropped" 1 s.Netsim.dropped

let test_partition_severs_link () =
  let first = ref (-1) in
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now < 8 then [ (2, Msg.Hello) ] else []);
  Netsim.add_node net 2 (fun ~now ~inbox -> if inbox <> [] && !first < 0 then first := now; []);
  let plan =
    Fault_plan.make
      ~partitions:[ { Fault_plan.from_round = 0; until_round = 5; cut = [ (1, 2) ] } ]
      ()
  in
  let s = Netsim.run ~plan net in
  (* Sends at rounds 0–4 are cut; the round-5 send lands at round 6. *)
  Alcotest.(check int) "first delivery after the cut heals" 6 !first;
  Alcotest.(check int) "five sends severed" 5 s.Netsim.dropped

(* Seeded replays are deterministic: the same (plan seed, schedule,
   protocol rng) triple must reproduce stats and result byte for byte —
   on the event engine under both delivery schedules and on the
   reference round loop. Without this, E12/E13 rows and shrunk QCheck
   counterexamples would not be reproducible. *)
let test_seeded_replay_deterministic () =
  let plan = Fault_plan.make ~seed:11 ~drop:0.1 ~duplicate:0.15 ~delay:0.2 ~max_delay:3 () in
  let exec engine =
    let g = Gen.random_h_graph ~rng:(rng 13) 16 2 in
    let net = Netsim.create () in
    let get = Bfs_echo.install_robust net ~graph:g ~root:0 in
    let s = engine net in
    (s, get ())
  in
  let sync_engine net = Netsim.run ~plan ~max_rounds:600 ~grace:8 net in
  let async_engine net =
    Netsim.run ~plan ~schedule:(Schedule.async ~seed:7 ~fairness:5) ~max_rounds:2_000
      ~grace:8 net
  in
  let reference net = Netsim.run_reference ~plan ~max_rounds:600 ~grace:8 net in
  Alcotest.(check bool) "sync event engine replays" true (exec sync_engine = exec sync_engine);
  Alcotest.(check bool) "async event engine replays" true
    (exec async_engine = exec async_engine);
  Alcotest.(check bool) "reference loop replays" true (exec reference = exec reference);
  Alcotest.(check bool) "sync engine agrees with the reference loop" true
    (exec sync_engine = exec reference)

(* ---------- Robust election ---------- *)

let parts = [ 3; 1; 4; 5; 9; 2; 6; 7 ]

let test_robust_election_no_faults () =
  let s, leader = Election.run_robust ~rng:(rng 61) parts in
  Alcotest.(check bool) "converged" true s.Netsim.converged;
  (match leader with
  | Some l -> Alcotest.(check bool) "leader is a participant" true (List.mem l parts)
  | None -> Alcotest.fail "no leader")

let test_robust_election_under_drop () =
  (* The 10%-loss convergence demanded by the issue, across seeds. *)
  for seed = 0 to 9 do
    let plan = Fault_plan.make ~seed ~drop:0.1 () in
    let s, leader = Election.run_robust ~rng:(rng seed) ~plan ~max_rounds:400 parts in
    Alcotest.(check bool) (Printf.sprintf "converged (seed %d)" seed) true s.Netsim.converged;
    match leader with
    | Some l ->
      Alcotest.(check bool) (Printf.sprintf "valid leader (seed %d)" seed) true (List.mem l parts)
    | None -> Alcotest.fail "no leader"
  done

let test_robust_election_coordinator_crash () =
  (* Participant 1 is the lowest id, hence epoch-0 coordinator. Crashing
     it before it can act forces the epoch fallback: the next-lowest id
     takes over and the election still converges — without electing the
     corpse. *)
  let plan = Fault_plan.make ~crashes:[ (1, 0) ] () in
  let s, leader = Election.run_robust ~rng:(rng 3) ~plan ~max_rounds:400 parts in
  Alcotest.(check bool) "converged despite coordinator crash" true s.Netsim.converged;
  match leader with
  | Some l ->
    Alcotest.(check bool) "leader is a live participant" true (List.mem l parts && l <> 1)
  | None -> Alcotest.fail "no leader"

let test_robust_election_blackout_fails_loudly () =
  let plan = Fault_plan.make ~drop:1.0 () in
  let s, _ = Election.run_robust ~rng:(rng 4) ~plan ~max_rounds:60 parts in
  Alcotest.(check bool) "not converged" false s.Netsim.converged;
  Alcotest.(check int) "ran to the cap" 60 s.Netsim.rounds

(* ---------- Robust BFS echo ---------- *)

let bfs_graph () = Gen.random_h_graph ~rng:(rng 17) 24 2

let test_robust_bfs_no_faults_matches_classic () =
  let g = bfs_graph () in
  let _, classic = Bfs_echo.run ~graph:g ~root:0 () in
  let s, robust = Bfs_echo.run_robust ~graph:g ~root:0 () in
  Alcotest.(check bool) "converged" true s.Netsim.converged;
  Alcotest.(check (option (list int))) "same component" classic robust

let test_robust_bfs_under_drop () =
  let g = bfs_graph () in
  let expected = List.sort Int.compare (Graph.nodes g) in
  for seed = 0 to 9 do
    let plan = Fault_plan.make ~seed ~drop:0.1 () in
    let s, collected = Bfs_echo.run_robust ~plan ~max_rounds:400 ~graph:g ~root:0 () in
    Alcotest.(check bool) (Printf.sprintf "converged (seed %d)" seed) true s.Netsim.converged;
    Alcotest.(check (option (list int)))
      (Printf.sprintf "exact component (seed %d)" seed)
      (Some expected) collected
  done

let test_robust_bfs_duplication_and_delay () =
  (* Heavy duplication + delay must stretch, never corrupt, the echo. *)
  let g = bfs_graph () in
  let expected = List.sort Int.compare (Graph.nodes g) in
  let plan = Fault_plan.make ~seed:8 ~drop:0.05 ~duplicate:0.3 ~delay:0.3 ~max_delay:4 () in
  let s, collected = Bfs_echo.run_robust ~plan ~max_rounds:600 ~graph:g ~root:0 () in
  Alcotest.(check bool) "converged" true s.Netsim.converged;
  Alcotest.(check bool) "duplications happened" true (s.Netsim.duplicated > 0);
  Alcotest.(check bool) "delays happened" true (s.Netsim.delayed > 0);
  Alcotest.(check (option (list int))) "exact component" (Some expected) collected

let test_robust_bfs_crash_never_lies () =
  (* Crash a non-root node mid-protocol: the run must either quiesce
     with no result or time out with converged = false — anything but a
     "successful" wrong component. *)
  let g = Gen.path 8 in
  let expected = List.sort Int.compare (Graph.nodes g) in
  let plan = Fault_plan.make ~crashes:[ (4, 2) ] () in
  let s, collected = Bfs_echo.run_robust ~plan ~max_rounds:120 ~graph:g ~root:0 () in
  Alcotest.(check bool) "no fabricated success" true
    ((not s.Netsim.converged) || collected = None || collected <> Some expected)

(* ---------- Robust cloud build ---------- *)

let test_robust_cloud_build_under_drop () =
  let members = List.init 20 Fun.id in
  let plan = Fault_plan.make ~seed:9 ~drop:0.15 () in
  let s, edges =
    Cloud_build.run_robust ~rng:(rng 61) ~plan ~max_rounds:400 ~d:2 ~leader:0 ~members ()
  in
  Alcotest.(check bool) "converged" true s.Netsim.converged;
  let g = Support.of_edges edges in
  Alcotest.(check bool) "edge plan still an expander skeleton" true
    (Xheal_graph.Traversal.is_connected g)

(* ---------- Repair phases / pricing threading ---------- *)

let test_primary_build_none_plan_identical () =
  let neighbors = List.init 12 Fun.id in
  let a = Pricing.primary_build ~rng:(rng 7) ~d:2 ~neighbors () in
  let b = Pricing.primary_build ~rng:(rng 7) ~plan:Fault_plan.none ~d:2 ~neighbors () in
  Alcotest.(check bool) "identical stats" true (a = b);
  Alcotest.(check bool) "converged" true a.Cost.m_converged

let test_primary_build_faulty_converges () =
  let neighbors = List.init 16 Fun.id in
  let plan = Fault_plan.make ~seed:3 ~drop:0.1 () in
  let s = Pricing.primary_build ~rng:(rng 7) ~plan ~max_rounds:400 ~d:2 ~neighbors () in
  Alcotest.(check bool) "converged" true s.Cost.m_converged;
  Alcotest.(check bool) "losses recorded" true (s.Cost.m_dropped > 0)

let test_backend_surfaces_convergence () =
  let members = List.init 12 Fun.id in
  let b = Pricing.backend ~seed:7 ~max_rounds:60 ~d:2 () in
  let ok, _ = b.Cost.run_elect ~plan:Fault_plan.none ~schedule:Schedule.sync ~phase:1 ~members in
  Alcotest.(check bool) "fault-free pricing converges" true ok.Cost.m_converged;
  let blackout = Fault_plan.make ~drop:1.0 () in
  let dead, _ = b.Cost.run_elect ~plan:blackout ~schedule:Schedule.sync ~phase:2 ~members in
  Alcotest.(check bool) "blackout pricing reports failure" false dead.Cost.m_converged;
  (* A whole deletion priced under the blackout: the failed phases
     survive aggregation into the report and the totals. *)
  let eng = Xheal.create ~plan:blackout ~backend:b ~rng:(rng 7) (Gen.star 12) in
  Xheal.delete eng 0;
  (match Xheal.last_report eng with
  | Some r ->
    Alcotest.(check bool) "failure survives aggregation" false r.Cost.measured.Cost.m_converged
  | None -> Alcotest.fail "report expected");
  Alcotest.(check int) "repair counted unconverged" 1 (Xheal.totals eng).Cost.unconverged

(* ---------- Decorrelated backoff ---------- *)

let test_backoff_decorrelated () =
  let t = Backoff.decorrelated ~base:2 ~cap:10 () in
  Alcotest.(check int) "cap is the envelope" 10 (Backoff.max_interval t);
  let distinct = Hashtbl.create 8 in
  for node = 0 to 3 do
    for attempt = 0 to 11 do
      let i = Backoff.interval t ~node ~attempt in
      Alcotest.(check bool) "within [base, cap]" true (i >= 2 && i <= 10);
      Alcotest.(check int) "pure function of (node, attempt)" i
        (Backoff.interval t ~node ~attempt);
      Hashtbl.replace distinct i ()
    done
  done;
  Alcotest.(check bool) "jitter actually varies" true (Hashtbl.length distinct > 3);
  Alcotest.check_raises "base >= 1"
    (Invalid_argument "Backoff.decorrelated: base must be >= 1") (fun () ->
      ignore (Backoff.decorrelated ~base:0 ~cap:5 ()));
  Alcotest.check_raises "cap >= base"
    (Invalid_argument "Backoff.decorrelated: cap must be >= base") (fun () ->
      ignore (Backoff.decorrelated ~base:6 ~cap:5 ()))

(* ---------- Properties ---------- *)

(* The no-silent-failure contract: under any loss rate, a robust run
   either converges with a sound result or stops exactly at the round
   cap with converged = false. *)
let prop_election_no_silent_failure =
  QCheck.Test.make ~name:"robust election: converges validly or fails loudly" ~count:30
    QCheck.(pair (int_range 0 5000) (float_range 0.0 0.3))
    (fun (seed, drop) ->
      let plan = Fault_plan.make ~seed ~drop () in
      let ps = List.init 10 (fun i -> i * 3) in
      let s, leader = Election.run_robust ~rng:(rng seed) ~plan ~max_rounds:250 ps in
      if s.Netsim.converged then match leader with Some l -> List.mem l ps | None -> false
      else s.Netsim.rounds = 250)

let prop_bfs_no_silent_failure =
  QCheck.Test.make ~name:"robust bfs-echo: exact component or loud failure" ~count:20
    QCheck.(pair (int_range 0 5000) (float_range 0.0 0.25))
    (fun (seed, drop) ->
      let g = Gen.random_h_graph ~rng:(rng (seed + 1)) 16 2 in
      let expected = List.sort Int.compare (Graph.nodes g) in
      let plan = Fault_plan.make ~seed ~drop () in
      let s, collected = Bfs_echo.run_robust ~plan ~max_rounds:250 ~graph:g ~root:0 () in
      if s.Netsim.converged then collected = Some expected else s.Netsim.rounds = 250)

let suite =
  [
    ( "fault-plan",
      [
        Alcotest.test_case "validation and accessors" `Quick test_plan_validation;
        Alcotest.test_case "none plan is byte-identical" `Quick test_none_plan_byte_identical;
      ] );
    ( "netsim-faults",
      [
        Alcotest.test_case "max_rounds exhaustion is explicit" `Quick
          test_max_rounds_reports_nonconvergence;
        Alcotest.test_case "unknown destinations counted" `Quick test_unknown_destination_counted;
        Alcotest.test_case "drop loses and counts" `Quick test_drop_all_loses_message;
        Alcotest.test_case "duplicate delivers twice" `Quick test_duplicate_delivers_twice;
        Alcotest.test_case "delay postpones delivery" `Quick test_delay_postpones_delivery;
        Alcotest.test_case "crash silences a node" `Quick test_crash_silences_node;
        Alcotest.test_case "partition severs a link" `Quick test_partition_severs_link;
        Alcotest.test_case "seeded replay is deterministic" `Quick
          test_seeded_replay_deterministic;
      ] );
    ( "robust-protocols",
      [
        Alcotest.test_case "election, no faults" `Quick test_robust_election_no_faults;
        Alcotest.test_case "election under 10% drop" `Quick test_robust_election_under_drop;
        Alcotest.test_case "election re-elects around a crashed coordinator" `Quick
          test_robust_election_coordinator_crash;
        Alcotest.test_case "election blackout fails loudly" `Quick
          test_robust_election_blackout_fails_loudly;
        Alcotest.test_case "bfs matches classic without faults" `Quick
          test_robust_bfs_no_faults_matches_classic;
        Alcotest.test_case "bfs under 10% drop" `Quick test_robust_bfs_under_drop;
        Alcotest.test_case "bfs under duplication and delay" `Quick
          test_robust_bfs_duplication_and_delay;
        Alcotest.test_case "bfs crash never fabricates success" `Quick
          test_robust_bfs_crash_never_lies;
        Alcotest.test_case "cloud build under drop" `Quick test_robust_cloud_build_under_drop;
      ] );
    ( "self-tuning",
      [
        Alcotest.test_case "decorrelated jitter stays in its envelope" `Quick
          test_backoff_decorrelated;
      ] );
    ( "fault-threading",
      [
        Alcotest.test_case "dist-repair none plan identical" `Quick
          test_primary_build_none_plan_identical;
        Alcotest.test_case "dist-repair converges under drop" `Quick
          test_primary_build_faulty_converges;
        Alcotest.test_case "backend surfaces convergence" `Quick test_backend_surfaces_convergence;
        QCheck_alcotest.to_alcotest prop_election_no_silent_failure;
        QCheck_alcotest.to_alcotest prop_bfs_no_silent_failure;
      ] );
  ]
