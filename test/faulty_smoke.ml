(* Fast fault-aware engine smoke, behind the @faulty-engine-smoke alias
   (a dependency of the default runtest): one lossy attack priced
   through the Pricing backend must beat sanity bars — repairs converge,
   loss costs more than the lossless protocols, the healed graph matches
   the lossless run's (the backend never touches the engine RNG) — and the
   adaptive defense policy must escalate under Byzantine senders while
   staying silent on honest loss. The full sweep lives in E15 and
   test_faulty_engine.ml. *)

module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Edge = Xheal_graph.Edge
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Fault_plan = Xheal_fault.Fault_plan
module Defense = Xheal_distributed.Defense
module Pricing = Xheal_distributed.Pricing

let rng seed = Random.State.make [| seed |]

let graph_sig g =
  ( List.sort Int.compare (Graph.nodes g),
    List.sort Edge.compare (Graph.edges g) )

let attack ?plan ?defense () =
  let g0 = Gen.random_regular ~rng:(rng 31) 24 4 in
  let backend =
    match defense with
    | None -> Pricing.backend ~seed:9 ~d:2 ()
    | Some defense -> Pricing.backend ~defense ~seed:9 ~d:2 ()
  in
  let eng = Xheal.create ?plan ~backend ~rng:(rng 32) g0 in
  let atk = rng 33 in
  for _ = 1 to 8 do
    let nodes = Graph.nodes (Xheal.graph eng) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    Xheal.delete eng v
  done;
  (Xheal.totals eng, graph_sig (Xheal.graph eng))

let () =
  let lossless, clean_sig = attack () in
  let lossy_plan = Fault_plan.make ~seed:0x5f ~drop:0.1 () in
  let lossy, lossy_sig = attack ~plan:lossy_plan () in
  if lossy.Cost.unconverged > 0 then
    failwith "faulty-smoke: a 10%-loss repair failed to quiesce";
  if lossy_sig <> clean_sig then
    failwith "faulty-smoke: the fault plan leaked into the healed graph";
  if lossy.Cost.total_messages <= lossless.Cost.total_messages then
    failwith "faulty-smoke: 10% loss did not raise the measured price";
  let adaptive_honest, _ = attack ~plan:lossy_plan ~defense:Defense.adaptive () in
  if adaptive_honest.Cost.escalations > 0 then
    failwith "faulty-smoke: adaptive policy escalated on honest loss";
  let byz_plan =
    Fault_plan.make ~seed:0x5f ~drop:0.05
      ~byzantine:[ (0, Fault_plan.Equivocate); (5, Fault_plan.Corrupt_payload) ]
      ()
  in
  let adaptive_byz, byz_sig = attack ~plan:byz_plan ~defense:Defense.adaptive () in
  if adaptive_byz.Cost.escalations = 0 then
    failwith "faulty-smoke: adaptive policy never escalated under byzantine senders";
  if byz_sig <> clean_sig then
    failwith "faulty-smoke: the byzantine plan leaked into the healed graph";
  Printf.printf
    "faulty-smoke: lossless=%d msgs, lossy=%d msgs, byz escalations=%d\n%!"
    lossless.Cost.total_messages lossy.Cost.total_messages
    adaptive_byz.Cost.escalations;
  print_endline "faulty-smoke: OK"
