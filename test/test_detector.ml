(* Failure detection as the repair trigger: the heartbeat/timeout
   detector's unit behaviour (confirmation under the latency bound,
   refutation of false suspicions, the timeout ladder) and the engine
   seam (Xheal.Detector): oracle equivalence, detection billing, and
   the clean abort of an unconfirmed death. *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Netsim = Xheal_distributed.Netsim
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Failure_detector = Xheal_distributed.Failure_detector
module Pricing = Xheal_distributed.Pricing
module Detect = Xheal_fault.Detect
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost

let rng seed = Random.State.make [| seed |]

let d = Xheal_core.Config.default.Xheal_core.Config.d

(* The NoN clique over {victim} ∪ N(victim), the monitoring topology
   the engine's detector trigger wires up. *)
let clique ids = List.map (fun u -> (u, List.filter (fun v -> v <> u) ids)) ids

let group = [ 0; 1; 2; 3; 4 ]

let cfg = Detect.make ~seed:21 ()

(* ---------- Detector protocol ---------- *)

let test_sync_crash_confirmed () =
  let stats, o =
    Failure_detector.run ~config:cfg ~victim:0 ~crash_at:9 ~peers:(clique group) ()
  in
  Alcotest.(check bool) "run quiesced" true stats.Netsim.converged;
  Alcotest.(check bool) "crash detected" true o.Detect.detected;
  Alcotest.(check int) "every surviving monitor confirmed" 4 o.Detect.confirmations;
  Alcotest.(check bool) "latency positive" true (o.Detect.latency > 0);
  Alcotest.(check bool) "latency under the analytical bound" true
    (o.Detect.latency <= Detect.latency_bound cfg ~fairness:1)

let test_async_lossy_crash_confirmed () =
  let plan = Fault_plan.make ~seed:33 ~drop:0.1 ~delay:0.2 ~max_delay:2 () in
  let schedule = Schedule.async ~seed:34 ~fairness:3 in
  let stats, o =
    Failure_detector.run ~plan ~schedule ~config:cfg ~victim:0 ~crash_at:9
      ~peers:(clique group) ()
  in
  Alcotest.(check bool) "run quiesced" true stats.Netsim.converged;
  Alcotest.(check bool) "crash detected under loss and asynchrony" true o.Detect.detected;
  Alcotest.(check bool) "latency under the fairness-widened bound" true
    (o.Detect.latency <= Detect.latency_bound cfg ~fairness:3);
  (* The same network without the crash: loss may raise suspicions, but
     each is refuted and nothing is confirmed. *)
  let stats, o =
    Failure_detector.run ~plan ~schedule ~config:cfg ~victim:0 ~peers:(clique group) ()
  in
  Alcotest.(check bool) "crash-free run quiesced" true stats.Netsim.converged;
  Alcotest.(check bool) "no phantom detection" false o.Detect.detected;
  Alcotest.(check bool) "refutations cover suspicions" true
    (o.Detect.refutations >= o.Detect.suspicions)

let test_quiet_lossless_raises_nothing () =
  let _, o = Failure_detector.run ~config:cfg ~victim:0 ~peers:(clique group) () in
  Alcotest.(check bool) "nobody died, nobody detected" false o.Detect.detected;
  Alcotest.(check int) "no suspicions on a clean network" 0 o.Detect.suspicions;
  Alcotest.(check int) "no refutations either" 0 o.Detect.refutations

(* A transient partition makes node 1 falsely suspect the (alive)
   victim; peers with fresh evidence refute it and nothing is ever
   confirmed — the graceful-degradation half of the detector contract. *)
let test_false_suspicion_refuted () =
  let plan =
    Fault_plan.make
      ~partitions:[ { Fault_plan.from_round = 0; until_round = 12; cut = [ (0, 1) ] } ]
      ()
  in
  let stats, o =
    Failure_detector.run ~plan ~config:cfg ~victim:0 ~peers:(clique group) ()
  in
  Alcotest.(check bool) "run quiesced" true stats.Netsim.converged;
  Alcotest.(check bool) "suspicion raised" true (o.Detect.suspicions >= 1);
  Alcotest.(check bool) "every suspicion refuted" true
    (o.Detect.refutations >= o.Detect.suspicions);
  Alcotest.(check bool) "never confirmed" false o.Detect.detected;
  Alcotest.(check int) "no phantom confirmations" 0 o.Detect.confirmations

(* The timeout ladder: under a permanently severed link, a refuted
   suspect re-trips later each time, so the flat (ladder = 0) detector
   cries wolf strictly more often over the same horizon. *)
let suspicions_with ~ladder =
  let cfg = Detect.make ~seed:21 ~ladder () in
  let plan =
    Fault_plan.make
      ~partitions:[ { Fault_plan.from_round = 0; until_round = 1_000; cut = [ (0, 1) ] } ]
      ()
  in
  let _, o = Failure_detector.run ~plan ~config:cfg ~victim:0 ~peers:(clique group) () in
  Alcotest.(check bool) "never confirmed" false o.Detect.detected;
  o.Detect.suspicions

let test_ladder_slows_re_suspicion () =
  let flat = suspicions_with ~ladder:0 in
  let climbed = suspicions_with ~ladder:3 in
  Alcotest.(check bool) "flat detector alarms repeatedly" true (flat >= 3);
  Alcotest.(check bool) "ladder cuts the false-alarm rate" true (climbed < flat);
  Alcotest.(check bool) "but the link still alarms" true (climbed >= 2)

let test_detect_validation () =
  Alcotest.check_raises "zero period"
    (Invalid_argument "Detect.make: heartbeat period must be >= 1") (fun () ->
      ignore (Detect.make ~period:0 ()));
  Alcotest.check_raises "timeout under one period"
    (Invalid_argument "Detect.make: timeout must cover one period") (fun () ->
      ignore (Detect.make ~period:4 ~timeout:3 ()));
  Alcotest.check_raises "negative ladder"
    (Invalid_argument "Detect.make: ladder must be >= 0") (fun () ->
      ignore (Detect.make ~ladder:(-1) ()));
  Alcotest.check_raises "zero confirm"
    (Invalid_argument "Detect.make: confirm must be >= 1") (fun () ->
      ignore (Detect.make ~confirm:0 ()));
  Alcotest.check_raises "horizon under one beat"
    (Invalid_argument "Detect.make: horizon leaves no room for a beat") (fun () ->
      ignore (Detect.make ~horizon:1 ()));
  Alcotest.check_raises "fairness under 1"
    (Invalid_argument "Detect.latency_bound: fairness must be >= 1") (fun () ->
      ignore (Detect.latency_bound (Detect.make ()) ~fairness:0))

(* ---------- Engine seam ---------- *)

let graph_sig g =
  ( List.sort Int.compare (Graph.nodes g),
    List.sort Xheal_graph.Edge.compare (Graph.edges g) )

(* [Detect.make ~horizon:2 ()] is a legal config (horizon covers one
   period-2 beat) whose timeout of 5 can never elapse before the
   horizon: a guaranteed-undetected detector. A deletion under it must
   abort cleanly — victim in place, graph untouched, invariants intact,
   only the detection attempt billed. *)
let blind = Detect.make ~horizon:2 ()

let test_undetected_death_aborts_cleanly () =
  let backend = Pricing.backend ~seed:9 ~d () in
  let g0 = Gen.random_regular ~rng:(rng 901) 16 4 in
  let eng = Xheal.create ~backend ~rng:(rng 902) g0 in
  let before = graph_sig (Xheal.graph eng) in
  let clouds_before = Xheal.num_clouds eng in
  Xheal.delete ~trigger:(Xheal.Detector blind) eng 0;
  Alcotest.(check bool) "victim still present" true (Graph.has_node (Xheal.graph eng) 0);
  Alcotest.(check bool) "graph untouched" true (graph_sig (Xheal.graph eng) = before);
  Alcotest.(check int) "no phantom clouds" clouds_before (Xheal.num_clouds eng);
  (match Xheal.check eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariants broken by the abort: " ^ e));
  match Xheal.last_report eng with
  | None -> Alcotest.fail "aborted deletion left no report"
  | Some r ->
    Alcotest.(check (list string)) "only detection billed" [ "detect" ]
      (List.map (fun (p : Cost.phase) -> p.Cost.label) r.Cost.phases);
    Alcotest.(check bool) "the attempt cost messages" true (r.Cost.messages > 0);
    Alcotest.(check int) "no edges touched" 0 (r.Cost.edges_added + r.Cost.edges_removed)

let test_detector_requires_backend () =
  let g0 = Gen.random_regular ~rng:(rng 911) 12 4 in
  let eng = Xheal.create ~rng:(rng 912) g0 in
  let trigger = Xheal.Detector (Detect.make ()) in
  Alcotest.check_raises "protocol, not closed form"
    (Invalid_argument "Xheal.delete: a Detector trigger requires a pricing backend")
    (fun () -> Xheal.delete ~trigger eng 0);
  Alcotest.check_raises "a batch of absent victims is rejected alike"
    (Invalid_argument "Xheal.delete_many: a Detector trigger requires a pricing backend")
    (fun () -> Xheal.delete_many ~trigger eng [ 999 ]);
  Alcotest.(check bool) "node 0 still present" true (Graph.has_node (Xheal.graph eng) 0);
  (match Xheal.check eng with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariants broken by the rejection: " ^ e));
  (* The rejections claimed no repair seq. *)
  Xheal.delete eng 0;
  match Xheal.last_report eng with
  | Some r -> Alcotest.(check int) "next accepted delete is seq 1" 1 r.Cost.seq
  | None -> Alcotest.fail "accepted deletion left no report"

(* One seeded attack, replayed under each trigger. *)
let run_attack ?trigger () =
  let g0 = Gen.random_regular ~rng:(rng 921) 24 4 in
  let plan = Fault_plan.make ~seed:23 ~drop:0.08 () in
  let schedule = Schedule.async ~seed:24 ~fairness:2 in
  let backend = Pricing.backend ~seed:25 ~d () in
  let eng = Xheal.create ~plan ~schedule ~backend ~rng:(rng 922) g0 in
  let atk = rng 923 in
  for _ = 1 to 5 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    match trigger with
    | None -> Xheal.delete eng v
    | Some tr -> Xheal.delete ~trigger:tr eng v
  done;
  (match Xheal.check eng with Ok () -> () | Error e -> Alcotest.fail e);
  (graph_sig (Xheal.graph eng), Xheal.totals eng)

let test_oracle_trigger_bit_identical () =
  let a = run_attack () in
  let b = run_attack ~trigger:Xheal.Oracle () in
  Alcotest.(check bool) "explicit Oracle trigger is the default, bit for bit" true (a = b)

let test_detector_heals_like_oracle () =
  let o_sig, o_tot = run_attack ~trigger:Xheal.Oracle () in
  let d_sig, d_tot = run_attack ~trigger:(Xheal.Detector (Detect.make ~seed:7 ())) () in
  Alcotest.(check bool) "identical healed graph" true (o_sig = d_sig);
  Alcotest.(check int) "every crash confirmed" o_tot.Cost.deletions d_tot.Cost.deletions;
  Alcotest.(check bool) "detection is billed on top" true
    (d_tot.Cost.total_messages > o_tot.Cost.total_messages)

let test_batch_detector () =
  let build () =
    let g0 = Gen.random_regular ~rng:(rng 931) 20 4 in
    let backend = Pricing.backend ~seed:9 ~d () in
    Xheal.create ~backend ~rng:(rng 932) g0
  in
  let victims = [ 0; 7 ] in
  let oracle = build () in
  Xheal.delete_many oracle victims;
  let detector = build () in
  Xheal.delete_many ~trigger:(Xheal.Detector (Detect.make ())) detector victims;
  Alcotest.(check bool) "batch heals identically under the detector" true
    (graph_sig (Xheal.graph oracle) = graph_sig (Xheal.graph detector));
  (* A blind detector confirms nothing: the whole batch aborts. *)
  let aborted = build () in
  let before = graph_sig (Xheal.graph aborted) in
  Xheal.delete_many ~trigger:(Xheal.Detector blind) aborted victims;
  Alcotest.(check bool) "unconfirmed batch leaves both victims" true
    (Graph.has_node (Xheal.graph aborted) 0 && Graph.has_node (Xheal.graph aborted) 7);
  Alcotest.(check bool) "graph untouched" true (graph_sig (Xheal.graph aborted) = before);
  match Xheal.check aborted with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariants broken by the batch abort: " ^ e)

(* ---------- Allocation tripwire ---------- *)

(* Detection is the hottest Netsim workload the benchmark prices, and
   nothing else in the fast tests notices when its message path starts
   to allocate again. 200 seeded lossy asynchronous runs on the 5-node
   clique must stay under [ceiling] minor words per sent message. The
   message path measures 36.8 (OCaml 5.1.1, no flambda); the ceiling is
   that plus 10%. *)
let ceiling = 40.4

let test_allocation_per_message () =
  let plan = Fault_plan.make ~drop:0.05 () in
  let schedule = Schedule.async ~seed:0 ~fairness:2 in
  let sent = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 199 do
    let stats, _ =
      Failure_detector.run ~plan:(Fault_plan.reseed plan i)
        ~schedule:(Schedule.reseed schedule i) ~config:cfg ~victim:0
        ~crash_at:cfg.Detect.period ~peers:(clique group) ()
    in
    sent := !sent + stats.Netsim.messages
  done;
  let per_message = (Gc.minor_words () -. before) /. float_of_int !sent in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per message < %.1f" per_message ceiling)
    true (per_message < ceiling)

let suite =
  [
    ( "failure-detector",
      [
        Alcotest.test_case "sync crash confirmed under the bound" `Quick
          test_sync_crash_confirmed;
        Alcotest.test_case "lossy async crash confirmed under the bound" `Quick
          test_async_lossy_crash_confirmed;
        Alcotest.test_case "clean network raises nothing" `Quick
          test_quiet_lossless_raises_nothing;
        Alcotest.test_case "false suspicion is refuted, never confirmed" `Quick
          test_false_suspicion_refuted;
        Alcotest.test_case "timeout ladder slows re-suspicion" `Quick
          test_ladder_slows_re_suspicion;
        Alcotest.test_case "config validation" `Quick test_detect_validation;
        Alcotest.test_case "message path allocation stays under its ceiling" `Quick
          test_allocation_per_message;
      ] );
    ( "detector-trigger",
      [
        Alcotest.test_case "unconfirmed death aborts cleanly" `Quick
          test_undetected_death_aborts_cleanly;
        Alcotest.test_case "detector trigger requires a backend" `Quick
          test_detector_requires_backend;
        Alcotest.test_case "explicit Oracle is bit-identical to the default" `Quick
          test_oracle_trigger_bit_identical;
        Alcotest.test_case "detector heals the oracle's graph, detection billed" `Quick
          test_detector_heals_like_oracle;
        Alcotest.test_case "batch detector: heal and abort" `Quick test_batch_detector;
      ] );
  ]
