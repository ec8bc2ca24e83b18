(* Fast failure-detector smoke, behind the @detector-smoke alias (a
   dependency of the default runtest): one crash detection on a NoN
   clique stays under the latency bound on sync and async schedules, a
   crash-free lossy run refutes its false suspicions without ever
   confirming, and the whole thing replays byte-identically per seed.
   The full sweep lives in E17 and test_detector.ml. *)

module Netsim = Xheal_distributed.Netsim
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Failure_detector = Xheal_distributed.Failure_detector
module Detect = Xheal_fault.Detect

(* The NoN clique over {victim} ∪ N(victim): everyone watches everyone
   else, as the engine's detector trigger wires it. *)
let clique ids = List.map (fun u -> (u, List.filter (fun v -> v <> u) ids)) ids

let cfg = Detect.make ~seed:3 ()

let detect ~plan ~schedule ~crash_at () =
  Failure_detector.run ~plan ~schedule ~config:cfg ~victim:0 ?crash_at
    ~peers:(clique [ 0; 1; 2; 3; 4 ])
    ()

let check name cond = if not cond then failwith ("detector-smoke: " ^ name)

let () =
  (* Crash detection, synchronous and fault-free: every surviving
     monitor confirms, within the latency bound. *)
  let stats, o = detect ~plan:Fault_plan.none ~schedule:Schedule.sync ~crash_at:(Some 9) () in
  check "sync run quiesced" stats.Netsim.converged;
  check "sync crash detected" o.Detect.detected;
  check "sync all four monitors confirmed" (o.Detect.confirmations = 4);
  check "sync latency positive" (o.Detect.latency > 0);
  check "sync latency under bound"
    (o.Detect.latency <= Detect.latency_bound cfg ~fairness:1);

  (* Same crash under loss and asynchrony: still detected, still under
     the (fairness-widened) bound. *)
  let plan = Fault_plan.make ~seed:11 ~drop:0.1 ~delay:0.2 ~max_delay:2 () in
  let schedule = Schedule.async ~seed:5 ~fairness:3 in
  let stats, o = detect ~plan ~schedule ~crash_at:(Some 9) () in
  check "async run quiesced" stats.Netsim.converged;
  check "async crash detected" o.Detect.detected;
  check "async latency under bound"
    (o.Detect.latency <= Detect.latency_bound cfg ~fairness:3);

  (* No crash, lossy network: suspicions may fire but every one is
     refuted before the confirm window closes — no confirmation, no
     phantom repair trigger. *)
  let stats, o = detect ~plan ~schedule ~crash_at:None () in
  check "false-suspicion run quiesced" stats.Netsim.converged;
  check "no phantom detection" (not o.Detect.detected);
  check "refutations cover suspicions" (o.Detect.refutations >= o.Detect.suspicions);

  (* Same-seed replay is byte-identical in every observable. *)
  let s1, o1 = detect ~plan ~schedule ~crash_at:(Some 9) () in
  let s2, o2 = detect ~plan ~schedule ~crash_at:(Some 9) () in
  check "same-seed replay identical" (s1 = s2 && o1 = o2);
  print_endline "detector-smoke: OK"
