(* The pricing backend as the engine's one protocol path: its phases
   match the standalone Dist_repair operations, a priced combine's
   BFS-echo reaches every absorbed member, and backend-priced deletions
   stay within O(log n) rounds. *)

module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Pricing = Xheal_distributed.Pricing
module Dist = Xheal_distributed.Dist_repair
module Scope = Xheal_obs.Scope
module Tracer = Xheal_obs.Tracer

let plan = Fault_plan.none

let schedule = Schedule.sync

let test_elect_build_matches_primary_build () =
  (* A fresh backend draws from the RNG [Pricing.backend ~seed] makes,
     [[| 0x9e3779b9; seed |]]; its elect then build consume it exactly
     as one [primary_build] does. *)
  let members = List.init 12 Fun.id in
  let b = Pricing.backend ~seed:5 ~d:2 () in
  let elect, leader = b.Cost.run_elect ~plan ~schedule ~phase:1 ~members in
  let leader = Option.value ~default:0 leader in
  let build = b.Cost.run_build ~plan ~schedule ~phase:2 ~leader ~members in
  let direct =
    Dist.primary_build ~rng:(Random.State.make [| 0x9e3779b9; 5 |]) ~d:2 ~neighbors:members ()
  in
  Alcotest.(check int) "same rounds" direct.Dist.rounds
    (elect.Cost.m_rounds + build.Cost.m_rounds);
  Alcotest.(check int) "same messages" direct.Dist.messages
    (elect.Cost.m_messages + build.Cost.m_messages);
  Alcotest.(check bool) "converged" true (elect.Cost.m_converged && build.Cost.m_converged)

let test_combine_reaches_every_member () =
  (* Two disjoint cliques as snapshots: the relay edge must let the
     BFS-echo reach everyone, so every member receives a message. *)
  let cl ms =
    (ms, List.concat_map (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) ms) ms)
  in
  let obs = Scope.create () in
  let b = Pricing.backend ~obs ~d:2 () in
  let m =
    b.Cost.run_combine ~plan ~schedule ~phase:1 ~clouds:[ cl [ 0; 1; 2 ]; cl [ 10; 11; 12 ] ]
  in
  let reached =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (e : Tracer.event) ->
           if String.starts_with ~prefix:"recv:" e.Tracer.name then Some e.Tracer.track else None)
         (Tracer.events obs.Scope.tracer))
  in
  Alcotest.(check (list int)) "every member reached" [ 0; 1; 2; 10; 11; 12 ] reached;
  Alcotest.(check bool) "converged" true m.Cost.m_converged;
  Alcotest.(check bool) "rounds sane" true (m.Cost.m_rounds > 0 && m.Cost.m_rounds < 40);
  Alcotest.(check bool) "messages flow" true (m.Cost.m_messages > 10)

let prop_priced_rounds_logarithmic =
  QCheck.Test.make ~name:"priced deletions stay within O(log n) rounds" ~count:10
    QCheck.(int_range 0 500)
    (fun seed ->
      let r = Random.State.make [| seed |] in
      let backend = Pricing.backend ~seed ~d:2 () in
      let eng = Xheal.create ~backend ~rng:r (Gen.connected_er ~rng:r 30 0.15) in
      let ok = ref true in
      for _ = 1 to 10 do
        let ns = Graph.nodes (Xheal.graph eng) in
        Xheal.delete eng (List.nth ns (Random.State.int r (List.length ns)));
        match Xheal.last_report eng with
        | Some rep ->
          (* 30 nodes: log2 n < 5; generous constant. *)
          if rep.Cost.rounds > 60 || not rep.Cost.faults.Cost.converged then ok := false
        | None -> ok := false
      done;
      !ok)

let suite =
  [
    ( "pricing",
      [
        Alcotest.test_case "elect+build equals primary_build" `Quick
          test_elect_build_matches_primary_build;
        Alcotest.test_case "priced combine reaches everyone" `Quick
          test_combine_reaches_every_member;
        QCheck_alcotest.to_alcotest prop_priced_rounds_logarithmic;
      ] );
  ]
