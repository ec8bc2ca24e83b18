(* Asynchronous engine: Schedule/Event_queue units, the conformance
   property gating the event-driven Netsim on the historical round loop
   (run_reference, the golden oracle), fairness/liveness under
   adversarial schedules, delay-coupling monotonicity, and the
   crashed-destination quiescence regression. *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Netsim = Xheal_distributed.Netsim
module Msg = Xheal_distributed.Msg
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Event_queue = Xheal_distributed.Event_queue
module Election = Xheal_distributed.Election
module Bfs_echo = Xheal_distributed.Bfs_echo
module Pricing = Xheal_distributed.Pricing
module Cost = Xheal_core.Cost

let rng seed = Random.State.make [| seed |]

(* ---------- Schedule ---------- *)

let test_schedule_basics () =
  Alcotest.(check bool) "sync is sync" true (Schedule.is_sync Schedule.sync);
  Alcotest.(check int) "sync fairness" 1 (Schedule.fairness Schedule.sync);
  Alcotest.(check int) "sync delay" 1
    (Schedule.delay Schedule.sync ~src:3 ~dst:7 ~k:5);
  let a = Schedule.async ~seed:1 ~fairness:4 in
  Alcotest.(check bool) "async is not sync" false (Schedule.is_sync a);
  Alcotest.(check int) "async fairness" 4 (Schedule.fairness a);
  Alcotest.check_raises "fairness >= 1"
    (Invalid_argument "Schedule.async: fairness must be >= 1") (fun () ->
      ignore (Schedule.async ~seed:1 ~fairness:0));
  Alcotest.(check bool) "reseed sync is identity" true
    (Schedule.is_sync (Schedule.reseed Schedule.sync 3))

let prop_schedule_delay_bounds =
  QCheck.Test.make ~name:"schedule: delay deterministic and within [1,F]" ~count:200
    QCheck.(quad (int_range 0 10_000) (int_range 1 64) small_nat small_nat)
    (fun (seed, fairness, src, k) ->
      let t = Schedule.async ~seed ~fairness in
      let d = Schedule.delay t ~src ~dst:(src + 1) ~k in
      d = Schedule.delay t ~src ~dst:(src + 1) ~k && 1 <= d && d <= fairness)

(* Raising F can only lengthen any individual delay — the coupling that
   makes quiescence time monotone in the fairness bound. *)
let prop_schedule_delay_coupled =
  QCheck.Test.make ~name:"schedule: delay monotone in fairness" ~count:200
    QCheck.(quad (int_range 0 10_000) (pair (int_range 1 32) (int_range 1 32)) small_nat
              small_nat)
    (fun (seed, (f1, f2), src, k) ->
      let lo = min f1 f2 and hi = max f1 f2 in
      let d t = Schedule.delay t ~src ~dst:(src + 2) ~k in
      d (Schedule.async ~seed ~fairness:lo) <= d (Schedule.async ~seed ~fairness:hi))

let test_schedule_fairness_one_is_sync_timing () =
  let t = Schedule.async ~seed:99 ~fairness:1 in
  for k = 0 to 50 do
    Alcotest.(check int)
      (Printf.sprintf "delay (k=%d)" k)
      1
      (Schedule.delay t ~src:(k mod 5) ~dst:(k mod 7) ~k)
  done

(* ---------- Event queue ---------- *)

(* Visit every due time in order, as the engine does. *)
let drain q =
  let rec go acc =
    if Event_queue.is_empty q then List.concat (List.rev acc)
    else go (Event_queue.pop_due q ~now:(Event_queue.next_time q) :: acc)
  in
  go []

let test_event_queue_orders_by_time_newest_first () =
  let q = Event_queue.create ~span:8 in
  Alcotest.(check bool) "fresh queue empty" true (Event_queue.is_empty q);
  Alcotest.(check int) "empty: next time is now + 1" 1 (Event_queue.next_time q);
  Event_queue.add q ~time:3 "c";
  Event_queue.add q ~time:1 "b";
  Event_queue.add q ~time:1 "a";
  Event_queue.add q ~time:7 "d";
  Alcotest.(check int) "length" 4 (Event_queue.length q);
  Alcotest.(check int) "next time" 1 (Event_queue.next_time q);
  (* Same time: the newer push first. *)
  Alcotest.(check (list string)) "drain order" [ "a"; "b"; "c"; "d" ] (drain q);
  Alcotest.(check int) "drained: next time is now + 1" 8 (Event_queue.next_time q)

let test_event_queue_pop_due () =
  let q = Event_queue.create ~span:6 in
  List.iteri (fun i t -> Event_queue.add q ~time:t (t, i)) [ 5; 2; 6; 2; 1 ];
  Alcotest.(check (list (pair int int))) "due at 1" [ (1, 4) ] (Event_queue.pop_due q ~now:1);
  Alcotest.(check (list (pair int int))) "due at 2" [ (2, 3); (2, 1) ]
    (Event_queue.pop_due q ~now:2);
  Alcotest.(check (list (pair int int))) "nothing due at 3" [] (Event_queue.pop_due q ~now:3);
  Alcotest.(check int) "rest still queued" 2 (Event_queue.length q);
  Alcotest.(check int) "next time" 5 (Event_queue.next_time q)

let test_event_queue_window () =
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  raises "span 0" (fun () -> ignore (Event_queue.create ~span:0 : int Event_queue.t));
  let q = Event_queue.create ~span:3 in
  raises "push at now" (fun () -> Event_queue.add q ~time:0 0);
  raises "push past now + span" (fun () -> Event_queue.add q ~time:4 0);
  Event_queue.add q ~time:3 3;
  Event_queue.add q ~time:2 2;
  raises "drain skipping a pending time" (fun () -> ignore (Event_queue.pop_due q ~now:3));
  Alcotest.(check (list int)) "due at 2" [ 2 ] (Event_queue.pop_due q ~now:2);
  raises "drain going backwards" (fun () -> ignore (Event_queue.pop_due q ~now:1));
  (* The window moves with the cursor. *)
  Event_queue.add q ~time:5 5;
  raises "push past the moved window" (fun () -> Event_queue.add q ~time:6 0);
  Alcotest.(check (list int)) "rest in time order" [ 3; 5 ] (drain q)

(* Against a list model: pushes at every visited time, each delay in
   [1, span]; the ring must hand back exactly the events due at [now],
   newest push first. *)
let prop_event_queue_model =
  QCheck.Test.make ~name:"event queue: each time drains its own pushes, newest first"
    ~count:100
    QCheck.(pair (int_range 1 9) (small_list (small_list small_nat)))
    (fun (span, steps) ->
      let q = Event_queue.create ~span in
      let pending = ref [] and id = ref 0 and ok = ref true in
      let visit now pushes =
        let due = Event_queue.pop_due q ~now in
        let expected, later = List.partition (fun (t, _) -> t = now) !pending in
        ok := !ok && due = List.map snd expected;
        pending := later;
        List.iter
          (fun d ->
            let time = now + 1 + (d mod span) in
            Event_queue.add q ~time !id;
            pending := (time, !id) :: !pending;
            incr id)
          pushes
      in
      List.iteri visit steps;
      let now = ref (List.length steps) in
      while !pending <> [] do
        visit !now [];
        incr now
      done;
      !ok && Event_queue.is_empty q)

(* ---------- Conformance: event engine vs golden oracle ---------- *)

(* Workload builders return a fresh net plus a result getter, so each
   engine runs on untouched state. *)

let election_workload seed () =
  let parts = List.init (6 + (seed mod 7)) (fun i -> ((i * 13) + seed) mod 97) in
  let parts = List.sort_uniq Int.compare parts in
  let net = Netsim.create () in
  let get = Election.install ~rng:(rng seed) net parts in
  (net, fun () -> Option.map (fun l -> [ l ]) (get ()))

let bfs_workload seed () =
  let g = Gen.random_h_graph ~rng:(rng seed) (8 + (seed mod 17)) 2 in
  let net = Netsim.create () in
  let get = Bfs_echo.install net ~graph:g ~root:0 in
  (net, fun () -> get ())

let check_conformant ?plan ?grace name mk =
  let run engine =
    let net, get = mk () in
    let s = engine ?max_rounds:(Some 2_000) ?plan ?grace net in
    (s, get ())
  in
  let a, ra = run (fun ?max_rounds ?plan ?grace net -> Netsim.run ?max_rounds ?plan ?grace net) in
  let b, rb = run (fun ?max_rounds ?plan ?grace net -> Netsim.run_reference ?max_rounds ?plan ?grace net) in
  Alcotest.(check bool) (name ^ ": identical stats") true (a = b);
  Alcotest.(check bool) (name ^ ": identical result") true (ra = rb);
  (a, ra)

let test_conformance_election () =
  let s, leader = check_conformant "election" (election_workload 61) in
  Alcotest.(check bool) "converged" true s.Netsim.converged;
  Alcotest.(check bool) "a leader emerged" true (leader <> None)

let test_conformance_bfs () =
  let s, _ = check_conformant "bfs-echo" (bfs_workload 17) in
  Alcotest.(check bool) "converged" true s.Netsim.converged

let test_conformance_under_faults () =
  (* The oracle property is stronger than the issue demands: the two
     engines agree bit-for-bit even under a fault gauntlet exercising
     every knob at once, because the event engine mirrors the legacy
     loop's RNG draw order exactly. *)
  let plan =
    Fault_plan.make ~seed:23 ~drop:0.15 ~duplicate:0.2 ~delay:0.25 ~max_delay:4
      ~crashes:[ (3, 6) ]
      ~partitions:[ { Fault_plan.from_round = 1; until_round = 4; cut = [ (0, 1) ] } ]
      ()
  in
  let s, _ = check_conformant ~plan ~grace:4 "faulty bfs-echo" (bfs_workload 29) in
  Alcotest.(check bool) "faults actually fired" true (s.Netsim.dropped > 0)

let prop_conformance =
  QCheck.Test.make ~name:"conformance: sync event engine == reference loop" ~count:40
    QCheck.(pair (int_range 0 9_999) bool)
    (fun (seed, use_election) ->
      let mk = if use_election then election_workload seed else bfs_workload seed in
      let net_a, get_a = mk () in
      let net_b, get_b = mk () in
      let a = Netsim.run ~max_rounds:2_000 net_a in
      let b = Netsim.run_reference ~max_rounds:2_000 net_b in
      a = b && get_a () = get_b () && a.Netsim.converged)

(* ---------- Fairness / liveness under adversarial schedules ---------- *)

let prop_async_election_live =
  QCheck.Test.make ~name:"async: robust election converges under any fair schedule"
    ~count:25
    QCheck.(pair (int_range 0 9_999) (int_range 1 12))
    (fun (seed, fairness) ->
      let ps = List.init 9 (fun i -> (i * 5) + 2) in
      let schedule = Schedule.async ~seed ~fairness in
      let s, leader = Election.run_robust ~rng:(rng seed) ~schedule ~max_rounds:5_000 ps in
      s.Netsim.converged
      && (match leader with Some l -> List.mem l ps | None -> false))

let prop_async_bfs_live =
  QCheck.Test.make ~name:"async: robust bfs-echo collects the exact component" ~count:20
    QCheck.(pair (int_range 0 9_999) (int_range 1 12))
    (fun (seed, fairness) ->
      let g = Gen.random_h_graph ~rng:(rng (seed + 3)) 14 2 in
      let expected = List.sort Int.compare (Graph.nodes g) in
      let schedule = Schedule.async ~seed ~fairness in
      let s, collected = Bfs_echo.run_robust ~schedule ~max_rounds:5_000 ~graph:g ~root:0 () in
      s.Netsim.converged && collected = Some expected)

(* ---------- Quiescence-time monotonicity in F ---------- *)

(* On a tree the classic flood/echo sends a fixed message sequence per
   directed link regardless of delivery order (each node has a unique
   discoverer), so with coupled delays the whole event schedule — and
   hence time-to-quiescence — is monotone in the fairness bound. *)
let random_tree seed n =
  let st = rng seed in
  let g = Graph.create () in
  Graph.add_node g 0;
  for i = 1 to n - 1 do
    Graph.add_node g i;
    ignore (Graph.add_edge g i (Random.State.int st i))
  done;
  g

let quiescence_time ~g ~schedule =
  let net = Netsim.create () in
  let get = Bfs_echo.install net ~graph:g ~root:0 in
  let s = Netsim.run ~max_rounds:5_000 ~schedule net in
  Alcotest.(check bool) "tree echo converged" true s.Netsim.converged;
  Alcotest.(check bool) "tree echo complete" true (get () <> None);
  s.Netsim.rounds

let prop_async_monotone_in_fairness =
  QCheck.Test.make ~name:"async: tree echo quiescence time monotone in F" ~count:15
    QCheck.(pair (int_range 0 9_999) (int_range 4 24))
    (fun (seed, n) ->
      let g = random_tree (seed + 7) n in
      let time f = quiescence_time ~g ~schedule:(Schedule.async ~seed ~fairness:f) in
      let times = List.map time [ 1; 2; 4; 8; 16 ] in
      let sync_time = quiescence_time ~g ~schedule:Schedule.sync in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      List.hd times = sync_time && non_decreasing times)

(* The whole Case-1 repair (election, then the cloud build) over 12
   neighbours quiesces under every fairness bound E13 sweeps. *)
let test_async_case1_repair_quiesces () =
  List.iter
    (fun fairness ->
      let schedule = Schedule.async ~seed:fairness ~fairness in
      let s =
        Pricing.primary_build ~rng:(rng 42) ~schedule ~max_rounds:5_000 ~d:2
          ~neighbors:(List.init 12 Fun.id) ()
      in
      Alcotest.(check bool) (Printf.sprintf "quiesces at F=%d" fairness) true s.Cost.m_converged)
    [ 1; 4; 16 ]

(* ---------- Determinism of the async engine ---------- *)

let test_async_replay_deterministic () =
  let go () =
    let g = Gen.random_h_graph ~rng:(rng 5) 18 2 in
    let schedule = Schedule.async ~seed:31 ~fairness:6 in
    let plan = Fault_plan.make ~seed:31 ~drop:0.1 ~duplicate:0.1 () in
    Bfs_echo.run_robust ~plan ~schedule ~max_rounds:5_000 ~graph:g ~root:0 ()
  in
  let a, ra = go () in
  let b, rb = go () in
  Alcotest.(check bool) "identical stats" true (a = b);
  Alcotest.(check bool) "identical result" true (ra = rb);
  Alcotest.(check bool) "converged" true a.Netsim.converged

(* ---------- A huge fairness bound ---------- *)

(* The ring is sized by the run's delay bound, capped at [max_rounds]: a
   message due after the run ends is never delivered, so it only has to
   stay pending. A fairness bound of 2^22 must neither allocate a 2^23
   bucket ring nor change what the run reports. *)
let test_huge_fairness_keeps_the_ring_small () =
  let net = Netsim.create () in
  Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now = 0 then [ (2, Msg.Hello) ] else []);
  Netsim.add_node net 2 (fun ~now:_ ~inbox:_ -> []);
  let schedule = Schedule.async ~seed:3 ~fairness:(1 lsl 22) in
  let before = Gc.allocated_bytes () in
  let s = Netsim.run ~max_rounds:50 ~schedule net in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f bytes < 64 KiB" allocated)
    true (allocated < 65_536.);
  Alcotest.(check int) "one send" 1 s.Netsim.messages;
  Alcotest.(check bool) "cut at max_rounds, the hello still in flight" false s.Netsim.converged;
  Alcotest.(check int) "rounds" 50 s.Netsim.rounds

(* ---------- Crashed-destination quiescence regression ---------- *)

(* A message dropped at delivery because its destination has crashed
   must count as activity, exactly like a gauntlet drop: otherwise the
   step looks idle, the grace window closes one step early, and a
   retry-based sender can be cut off while still working. Pinned trace:
   one send at time 0 into a node crashed at time 1 quiesces at
   3 + grace on both engines. *)
let test_crashed_delivery_keeps_grace_open () =
  let mk () =
    let net = Netsim.create () in
    Netsim.add_node net 1 (fun ~now ~inbox:_ -> if now = 0 then [ (2, Msg.Hello) ] else []);
    Netsim.add_node net 2 (fun ~now:_ ~inbox:_ -> []);
    net
  in
  let plan = Fault_plan.make ~crashes:[ (2, 1) ] () in
  List.iter
    (fun grace ->
      let a = Netsim.run ~plan ~grace (mk ()) in
      let b = Netsim.run_reference ~plan ~grace (mk ()) in
      Alcotest.(check bool) (Printf.sprintf "engines agree (grace %d)" grace) true (a = b);
      Alcotest.(check int)
        (Printf.sprintf "crash drop holds the window open (grace %d)" grace)
        (3 + grace) a.Netsim.rounds;
      Alcotest.(check int) (Printf.sprintf "dropped (grace %d)" grace) 1 a.Netsim.dropped;
      Alcotest.(check bool) (Printf.sprintf "converged (grace %d)" grace) true
        a.Netsim.converged)
    [ 0; 1; 2 ]

let suite =
  [
    ( "schedule",
      [
        Alcotest.test_case "basics and validation" `Quick test_schedule_basics;
        Alcotest.test_case "fairness 1 is sync timing" `Quick
          test_schedule_fairness_one_is_sync_timing;
        QCheck_alcotest.to_alcotest prop_schedule_delay_bounds;
        QCheck_alcotest.to_alcotest prop_schedule_delay_coupled;
      ] );
    ( "event-queue",
      [
        Alcotest.test_case "orders by time, newest first" `Quick
          test_event_queue_orders_by_time_newest_first;
        Alcotest.test_case "pop_due splits at now" `Quick test_event_queue_pop_due;
        Alcotest.test_case "rejects pushes and drains outside the window" `Quick
          test_event_queue_window;
        QCheck_alcotest.to_alcotest prop_event_queue_model;
      ] );
    ( "conformance",
      [
        Alcotest.test_case "election matches the oracle" `Quick test_conformance_election;
        Alcotest.test_case "bfs-echo matches the oracle" `Quick test_conformance_bfs;
        Alcotest.test_case "full fault gauntlet matches the oracle" `Quick
          test_conformance_under_faults;
        QCheck_alcotest.to_alcotest prop_conformance;
      ] );
    ( "async-schedules",
      [
        QCheck_alcotest.to_alcotest prop_async_election_live;
        QCheck_alcotest.to_alcotest prop_async_bfs_live;
        QCheck_alcotest.to_alcotest prop_async_monotone_in_fairness;
        Alcotest.test_case "a Case-1 repair quiesces at F = 1, 4, 16" `Quick
          test_async_case1_repair_quiesces;
        Alcotest.test_case "async replay is deterministic" `Quick
          test_async_replay_deterministic;
        Alcotest.test_case "crashed delivery keeps the grace window open" `Quick
          test_crashed_delivery_keeps_grace_open;
        Alcotest.test_case "a huge fairness bound keeps the ring small" `Quick
          test_huge_fairness_keeps_the_ring_small;
      ] );
  ]
