(* The fault-aware pricing path of the engine. A pricing backend prices
   repairs and never changes them: with one, every deletion heals to the
   same graph through the same cases and clouds as the closed-form
   engine, and only the protocol-backed phases carry measured values.
   The adaptive defense policy escalates only under Byzantine senders,
   and the two-clock convention keeps engine spans and simulator spans
   on separate tracers. *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Edge = Xheal_graph.Edge
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Defense = Xheal_distributed.Defense
module Pricing = Xheal_distributed.Pricing
module Scope = Xheal_obs.Scope
module Tracer = Xheal_obs.Tracer

let rng seed = Random.State.make [| seed |]

(* Phases a backend prices by running protocols; every other phase
   keeps its closed form with or without one. *)
let measured_labels =
  [ "elect-primary"; "build-primary"; "elect-secondary"; "build-secondary"; "combine" ]

(* Everything a report says about the repair itself, plus the values of
   its closed-form phases. *)
let repair_shape (r : Cost.report) =
  ( (r.Cost.case, r.Cost.combined),
    (r.Cost.edges_added, r.Cost.edges_removed, r.Cost.clouds_touched),
    List.map
      (fun (p : Cost.phase) ->
        ( p.Cost.label,
          if List.mem p.Cost.label measured_labels then None
          else Some (p.Cost.rounds, p.Cost.messages) ))
      r.Cost.phases )

(* One full attack, as one comparable value. [batch] drives delete_many
   instead of delete. *)
let run_engine ~with_backend ~batch seed =
  let g0 = Gen.random_regular ~rng:(rng seed) 20 4 in
  let backend =
    if with_backend then Some (Pricing.backend ~seed:(seed + 1) ~d:2 ()) else None
  in
  let eng = Xheal.create ?backend ~rng:(rng (seed + 2)) g0 in
  let atk = rng (seed + 3) in
  let shapes = ref [] in
  for _ = 1 to 6 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    if batch then
      let victims = List.filteri (fun i _ -> i < 2) (Gen.shuffle_list ~rng:atk nodes) in
      Xheal.delete_many eng victims
    else begin
      let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
      Xheal.delete eng v
    end;
    shapes := Option.map repair_shape (Xheal.last_report eng) :: !shapes
  done;
  let g = Xheal.graph eng in
  ( List.rev !shapes,
    List.sort Int.compare (Graph.nodes g),
    List.sort Edge.compare (Graph.edges g) )

let conformance =
  QCheck.Test.make ~name:"delete: a backend prices, never repairs" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      run_engine ~with_backend:true ~batch:false seed
      = run_engine ~with_backend:false ~batch:false seed)

let conformance_batch =
  QCheck.Test.make ~name:"delete_many: a backend prices, never repairs" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      run_engine ~with_backend:true ~batch:true seed
      = run_engine ~with_backend:false ~batch:true seed)

(* ------------------------------------------------------------------ *)

let byz_plan =
  Fault_plan.make ~seed:0xbee ~drop:0.05
    ~byzantine:
      [ (0, Fault_plan.Equivocate); (3, Fault_plan.Corrupt_payload);
        (7, Fault_plan.Equivocate) ]
    ()

let run_defended policy =
  let g0 = Gen.random_regular ~rng:(rng 90) 24 4 in
  let eng =
    Xheal.create ~plan:byz_plan
      ~backend:(Pricing.backend ~defense:policy ~seed:5 ~d:2 ())
      ~rng:(rng 91) g0
  in
  let atk = rng 92 in
  for _ = 1 to 10 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    Xheal.delete eng v
  done;
  Xheal.totals eng

let test_adaptive_escalates () =
  let adaptive = run_defended Defense.adaptive in
  let static = run_defended (Defense.static Defense.none) in
  Alcotest.(check bool) "adaptive escalates under byzantine senders" true
    (adaptive.Cost.escalations > 0);
  Alcotest.(check int) "static policy never escalates" 0 static.Cost.escalations

(* One attack priced under [plan]: its totals and its healed graph. *)
let priced_attack ?plan ~defense () =
  let g0 = Gen.random_regular ~rng:(rng 31) 24 4 in
  let backend = Pricing.backend ~defense ~seed:9 ~d:2 () in
  let eng = Xheal.create ?plan ~backend ~rng:(rng 32) g0 in
  let atk = rng 33 in
  for _ = 1 to 8 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    Xheal.delete eng (List.nth nodes (Random.State.int atk (List.length nodes)))
  done;
  let g = Xheal.graph eng in
  ( Xheal.totals eng,
    (List.sort Int.compare (Graph.nodes g), List.sort Edge.compare (Graph.edges g)) )

(* Loss raises the bill and Byzantine senders make the adaptive policy
   escalate, but neither reaches the healed graph, and honest loss
   alone never escalates. *)
let test_faults_move_only_the_bill () =
  let static = Defense.static Defense.none in
  let lossless, clean = priced_attack ~defense:static () in
  let lossy_plan = Fault_plan.make ~seed:0x5f ~drop:0.1 () in
  let lossy, lossy_graph = priced_attack ~plan:lossy_plan ~defense:static () in
  Alcotest.(check int) "every lossy repair quiesced" 0 lossy.Cost.unconverged;
  Alcotest.(check bool) "loss leaves the healed graph alone" true (lossy_graph = clean);
  Alcotest.(check bool) "loss raises the bill" true
    (lossy.Cost.total_messages > lossless.Cost.total_messages);
  let honest, _ = priced_attack ~plan:lossy_plan ~defense:Defense.adaptive () in
  Alcotest.(check int) "honest loss never escalates" 0 honest.Cost.escalations;
  let byz_plan =
    Fault_plan.make ~seed:0x5f ~drop:0.05
      ~byzantine:[ (0, Fault_plan.Equivocate); (5, Fault_plan.Corrupt_payload) ]
      ()
  in
  let byz, byz_graph = priced_attack ~plan:byz_plan ~defense:Defense.adaptive () in
  Alcotest.(check bool) "byzantine senders escalate" true (byz.Cost.escalations > 0);
  Alcotest.(check bool) "byzantine senders leave the healed graph alone" true
    (byz_graph = clean)

(* ------------------------------------------------------------------ *)
(* Two-clock convention: engine spans are timestamped on cost-model
   rounds, backend protocol spans on Netsim virtual time. Separate
   scopes each stay single-clock; routing both onto one scope is the
   mixed-timeline mistake Tracer.check exists to catch. *)

let faulty_attack ~engine_obs ~backend_obs =
  let g0 = Gen.random_regular ~rng:(rng 70) 16 4 in
  let plan = Fault_plan.make ~seed:3 ~drop:0.1 () in
  let backend = Pricing.backend ?obs:backend_obs ~seed:4 ~d:2 () in
  let eng = Xheal.create ?obs:engine_obs ~plan ~backend ~rng:(rng 71) g0 in
  let atk = rng 72 in
  for _ = 1 to 4 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    Xheal.delete eng v
  done

let test_two_clocks_separated () =
  let engine_obs = Scope.create () and net_obs = Scope.create () in
  faulty_attack ~engine_obs:(Some engine_obs) ~backend_obs:(Some net_obs);
  Alcotest.(check (list string))
    "engine scope claims the cost-model clock" [ "engine-rounds" ]
    (Tracer.clocks engine_obs.Scope.tracer);
  Alcotest.(check (list string))
    "backend scope claims virtual time" [ "net-virtual" ]
    (Tracer.clocks net_obs.Scope.tracer);
  (match Tracer.check engine_obs.Scope.tracer with
  | Ok () -> ()
  | Error e -> Alcotest.failf "engine scope: %s" e);
  match Tracer.check net_obs.Scope.tracer with
  | Ok () -> ()
  | Error e -> Alcotest.failf "backend scope: %s" e

let test_two_clocks_mixed_detected () =
  let shared = Scope.create () in
  faulty_attack ~engine_obs:(Some shared) ~backend_obs:(Some shared);
  match Tracer.check shared.Scope.tracer with
  | Error _ -> ()
  | Ok () ->
    Alcotest.fail "sharing one scope across both clocks must trip Tracer.check"

(* ------------------------------------------------------------------ *)

let test_faulty_requires_backend () =
  let g0 = Gen.random_regular ~rng:(rng 80) 12 4 in
  let plan = Fault_plan.make ~seed:1 ~drop:0.2 () in
  Alcotest.check_raises "create: faulty plan without backend"
    (Invalid_argument "Xheal.create: a fault plan or async schedule requires a pricing backend")
    (fun () -> ignore (Xheal.create ~plan ~rng:(rng 81) g0));
  Alcotest.check_raises "create: async schedule without backend"
    (Invalid_argument "Xheal.create: a fault plan or async schedule requires a pricing backend")
    (fun () -> ignore (Xheal.create ~schedule:(Schedule.async ~seed:2 ~fairness:3) ~rng:(rng 82) g0))

let suite =
  [
    ( "faulty-engine",
      [
        QCheck_alcotest.to_alcotest conformance;
        QCheck_alcotest.to_alcotest conformance_batch;
        Alcotest.test_case "adaptive policy escalates only under byzantine" `Quick
          test_adaptive_escalates;
        Alcotest.test_case "loss and byzantine senders move only the bill" `Quick
          test_faults_move_only_the_bill;
        Alcotest.test_case "two scopes, two clocks: both timelines clean" `Quick
          test_two_clocks_separated;
        Alcotest.test_case "one shared scope trips the mixed-clock check" `Quick
          test_two_clocks_mixed_detected;
        Alcotest.test_case "faulty delivery without a backend is rejected" `Quick
          test_faulty_requires_backend;
      ] );
  ]
