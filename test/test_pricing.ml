(* The pricing backend as the engine's one protocol path: its phases
   match the standalone repair operations, a priced combine's
   BFS-echo reaches every absorbed member, and backend-priced deletions
   stay within O(log n) rounds. *)

module Graph = Xheal_graph.Graph
module Gen = Xheal_graph.Generators
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Pricing = Xheal_distributed.Pricing
module Scope = Xheal_obs.Scope
module Tracer = Xheal_obs.Tracer
module Defense = Xheal_distributed.Defense
module Detect = Xheal_fault.Detect

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
    Pricing.primary_build ~rng:(Random.State.make [| 0x9e3779b9; 5 |]) ~d:2 ~neighbors:members ()
  in
  Alcotest.(check int) "same rounds" direct.Cost.m_rounds
    (elect.Cost.m_rounds + build.Cost.m_rounds);
  Alcotest.(check int) "same messages" direct.Cost.m_messages
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
          if rep.Cost.rounds > 60 || not rep.Cost.measured.Cost.m_converged then ok := false
        | None -> ok := false
      done;
      !ok)

(* A report's bill is the sum of the bills its backend returned: every
   closure of the wrapped backend records the bill it hands the engine,
   and after each seeded delete or batch, under a lossy async plan with
   both triggers, the report's [measured] must equal their sum field by
   field, and the totals must count its convergence and escalations. *)
let bill_fields (m : Cost.measured) =
  [
    ("rounds", m.Cost.m_rounds);
    ("messages", m.Cost.m_messages);
    ("words", m.Cost.m_words);
    ("converged", Bool.to_int m.Cost.m_converged);
    ("dropped", m.Cost.m_dropped);
    ("duplicated", m.Cost.m_duplicated);
    ("delayed", m.Cost.m_delayed);
    ("tampered", m.Cost.m_tampered);
    ("escalations", m.Cost.m_escalations);
  ]

(* Wraps [b] so every closure records the bill it hands the engine in
   [bills]; with [meter], the elect, build and combine closures also
   hand it their phase name and the words the wrapped call allocated. *)
let recording ?meter bills (b : Cost.backend) =
  let note m =
    bills := m :: !bills;
    m
  in
  let metered phase f =
    match meter with
    | None -> f ()
    | Some k ->
      let before = Test_monitor.allocated () in
      let r = f () in
      k phase (Test_monitor.allocated () - before);
      r
  in
  {
    Cost.run_elect =
      (fun ~plan ~schedule ~phase ~members ->
        let m, leader =
          metered "elect" (fun () -> b.Cost.run_elect ~plan ~schedule ~phase ~members)
        in
        (note m, leader));
    run_build =
      (fun ~plan ~schedule ~phase ~leader ~members ->
        note
          (metered "build" (fun () ->
               b.Cost.run_build ~plan ~schedule ~phase ~leader ~members)));
    run_combine =
      (fun ~plan ~schedule ~phase ~clouds ->
        note (metered "combine" (fun () -> b.Cost.run_combine ~plan ~schedule ~phase ~clouds)));
    run_detect =
      (fun ~plan ~schedule ~phase ~victim ~peers ~config ->
        let m, outcome = b.Cost.run_detect ~plan ~schedule ~phase ~victim ~peers ~config in
        (note m, outcome));
  }

(* The seeded bill run: a lossy async plan, both triggers, 12 steps
   each with every third a 3-victim batch. Returns how many repairs
   combined, and the unconverged and escalation totals. *)
let bill_run ?meter () =
  let plan = Fault_plan.make ~seed:11 ~drop:0.1 () in
  let schedule = Schedule.async ~seed:12 ~fairness:3 in
  let combines = ref 0 and unconverged = ref 0 and escalations = ref 0 in
  List.iter
    (fun trigger ->
      let bills = ref [] in
      let backend =
        recording ?meter bills
          (Pricing.backend ~defense:Defense.adaptive ~max_rounds:30 ~seed:13 ~d:2 ())
      in
      let r = Random.State.make [| 14 |] in
      let eng = Xheal.create ~plan ~schedule ~backend ~rng:r (Gen.connected_er ~rng:r 40 0.12) in
      for step = 1 to 12 do
        let nodes = Graph.nodes (Xheal.graph eng) in
        let pick () = List.nth nodes (Random.State.int r (List.length nodes)) in
        let before = Xheal.totals eng in
        bills := [];
        if step mod 3 = 0 then Xheal.delete_many ~trigger eng [ pick (); pick (); pick () ]
        else Xheal.delete ~trigger eng (pick ());
        let sum = List.fold_left Cost.add_measured Cost.zero_measured !bills in
        let rep = Option.get (Xheal.last_report eng) in
        let after = Xheal.totals eng in
        if rep.Cost.combined then incr combines;
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "step %d: report bill is the sum of the backend bills" step)
          (bill_fields sum) (bill_fields rep.Cost.measured);
        Alcotest.(check int)
          (Printf.sprintf "step %d: unconverged" step)
          (before.Cost.unconverged + if sum.Cost.m_converged then 0 else 1)
          after.Cost.unconverged;
        Alcotest.(check int)
          (Printf.sprintf "step %d: escalations" step)
          (before.Cost.escalations + sum.Cost.m_escalations)
          after.Cost.escalations
      done;
      let tot = Xheal.totals eng in
      unconverged := !unconverged + tot.Cost.unconverged;
      escalations := !escalations + tot.Cost.escalations)
    [ Xheal.Oracle; Xheal.Detector (Detect.make ()) ];
  (!combines, !unconverged, !escalations)

let test_report_bill_sums_backend_bills () =
  let combines, unconverged, escalations = bill_run () in
  (* The run exercises what it checks: the 30-round cap leaves phases
     unconverged, and the adaptive policy escalates some of them. *)
  Alcotest.(check bool) "a combine was priced" true (combines > 0);
  Alcotest.(check bool) "an unconverged repair was counted" true (unconverged > 0);
  Alcotest.(check bool) "an escalation was counted" true (escalations > 0)

(* Allocation tripwire for the backend closures, on the bill run: the
   median words one call allocates, per phase. Measured (OCaml 5.1.1,
   no flambda) over the run's 24 elect, 24 build and 4 combine calls:
   elect 4 175, build 5 654, combine 98 607; each ceiling is that plus
   10%. A phase that starts copying its members, rebuilding a table or
   running a protocol twice fails here. *)
let phase_ceilings = [ ("elect", 4_592); ("build", 6_219); ("combine", 108_468) ]

let test_phase_allocation () =
  let words = Hashtbl.create 3 in
  let meter phase w =
    Hashtbl.replace words phase (w :: Option.value ~default:[] (Hashtbl.find_opt words phase))
  in
  ignore (bill_run ~meter ());
  List.iter
    (fun (phase, ceiling) ->
      let ws = List.sort Int.compare (Option.value ~default:[] (Hashtbl.find_opt words phase)) in
      Alcotest.(check bool) (phase ^ " was priced") true (ws <> []);
      let median = List.nth ws (List.length ws / 2) in
      Alcotest.(check bool)
        (Printf.sprintf "median %s allocates %d <= %d words" phase median ceiling)
        true (median <= ceiling))
    phase_ceilings

let suite =
  [
    ( "pricing",
      [
        Alcotest.test_case "elect+build equals primary_build" `Quick
          test_elect_build_matches_primary_build;
        Alcotest.test_case "priced combine reaches everyone" `Quick
          test_combine_reaches_every_member;
        QCheck_alcotest.to_alcotest prop_priced_rounds_logarithmic;
        Alcotest.test_case "a report's bill is the sum of its backend bills" `Quick
          test_report_bill_sums_backend_bills;
        Alcotest.test_case "elect, build and combine allocation stay under their ceilings"
          `Quick test_phase_allocation;
      ] );
  ]
