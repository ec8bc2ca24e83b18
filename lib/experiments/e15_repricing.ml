module Table = Xheal_metrics.Table
module Gen = Xheal_graph.Generators
module Graph = Xheal_graph.Graph
module Xheal = Xheal_core.Xheal
module Cost = Xheal_core.Cost
module Fault_plan = Xheal_fault.Fault_plan
module Schedule = Xheal_fault.Schedule
module Defense = Xheal_distributed.Defense
module Pricing = Xheal_distributed.Pricing

(* E7 re-priced under faults: the same seeded deletion attack, but every
   protocol-backed engine phase is charged by actually driving the
   repair protocols under a fault plan / delivery schedule (the Pricing
   backend), instead of the lossless closed forms E7 inherits.
   The sweep crosses loss rate x fairness F x Byzantine fraction; a
   policy trio on one lossy-but-honest cell prices the adaptive
   escalation policy against always-off and always-on defenses.

   Because the backend draws only from its private RNG, every cell
   replays the *identical* attack and heals to the *identical* graph —
   the sweep varies the price of the repair story, never the story. *)

(* One priced cell of the sweep (or of the policy trio). *)
type row = {
  loss : float;
  fairness : int;
  byz_frac : float;
  policy : string;  (* "static-none" | "adaptive" | "static-all" *)
  repairs : int;
  messages : int;
  rounds : int;
  amortized : float;  (* Messages per deletion; 0. when [repairs = 0]. *)
  overhead : float;  (* Amortized messages over Lemma 5's lower bound. *)
  escalations : int;
  unconverged : int;
}

(* ~frac*n Byzantine ids spread across the initial id range, alternating
   behaviours (both are lying senders; see Fault_plan.behaviour). *)
let byzantine_for ~n frac =
  let k = int_of_float ((frac *. float_of_int n) +. 0.5) in
  List.init k (fun i ->
      ( i * (n / max 1 k),
        if i mod 2 = 0 then Fault_plan.Equivocate else Fault_plan.Corrupt_payload ))

let plan_for ~n ~loss ~byz_frac =
  if loss = 0.0 && byz_frac = 0.0 then Fault_plan.none
  else Fault_plan.make ~seed:0x0e15 ~drop:loss ~byzantine:(byzantine_for ~n byz_frac) ()

let schedule_for fairness =
  if fairness <= 1 then Schedule.sync else Schedule.async ~seed:0x5e15 ~fairness

(* Canonical signature of the healed graph, for the cross-cell
   plan-independence check. *)
let graph_sig g =
  let nodes = List.sort Int.compare (Graph.nodes g) in
  let edges =
    List.sort Xheal_graph.Edge.compare (Graph.edges g)
  in
  (nodes, edges)

(* One cell: the fixed seeded attack, priced under (plan, schedule,
   defense policy). The engine RNG, attack RNG and initial graph are
   re-seeded identically per cell, so only the pricing varies. *)
let run_cell ~n ~deletions ~loss ~fairness ~byz_frac ~policy ~policy_name () =
  let d = Xheal_core.Config.default.Xheal_core.Config.d in
  let g0 = Gen.random_regular ~rng:(Exp.seeded 1500) n 4 in
  let plan = plan_for ~n ~loss ~byz_frac in
  let schedule = schedule_for fairness in
  let backend = Pricing.backend ~defense:policy ~seed:0x0e15 ~d () in
  let eng = Xheal.create ~plan ~schedule ~backend ~rng:(Exp.seeded 1501) g0 in
  let atk = Exp.seeded 1502 in
  for _ = 1 to deletions do
    let nodes = Graph.nodes (Xheal.graph eng) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    Xheal.delete eng v
  done;
  let t = Xheal.totals eng in
  ( {
      loss;
      fairness;
      byz_frac;
      policy = policy_name;
      repairs = t.Cost.deletions;
      messages = t.Cost.total_messages;
      rounds = t.Cost.total_rounds;
      amortized = Cost.amortized_messages t;
      overhead = Cost.overhead_ratio t;
      escalations = t.Cost.escalations;
      unconverged = t.Cost.unconverged;
    },
    graph_sig (Xheal.graph eng) )

(* The same attack on a backend-less engine: the closed-form pricing
   the measured cells are banded against. *)
let run_closed_form ~n ~deletions () =
  let g0 = Gen.random_regular ~rng:(Exp.seeded 1500) n 4 in
  let eng = Xheal.create ~rng:(Exp.seeded 1501) g0 in
  let atk = Exp.seeded 1502 in
  for _ = 1 to deletions do
    let nodes = Graph.nodes (Xheal.graph eng) in
    let v = List.nth nodes (Random.State.int atk (List.length nodes)) in
    Xheal.delete eng v
  done;
  (Xheal.totals eng, graph_sig (Xheal.graph eng))

(* loss p, fairness F, Byzantine fraction b — the E15 sweep. *)
let sweep_cells = [
  (0.0, 1, 0.0);
  (0.05, 1, 0.0);
  (0.1, 1, 0.0);
  (0.0, 4, 0.0);
  (0.1, 4, 0.0);
  (0.0, 1, 0.1);
  (0.1, 4, 0.1);
]

(* The lossy-but-honest cell the policy trio prices. *)
let trio_cell = (0.05, 1, 0.0)

let trio_policies =
  [
    ("static-none", Defense.static Defense.none);
    ("adaptive", Defense.adaptive);
    ("static-all", Defense.static Defense.all);
  ]

let compute ~quick =
  let n = if quick then 32 else 64 in
  let deletions = if quick then 10 else 24 in
  let sweep =
    List.map
      (fun (loss, fairness, byz_frac) ->
        run_cell ~n ~deletions ~loss ~fairness ~byz_frac
          ~policy:Defense.adaptive ~policy_name:"adaptive" ())
      sweep_cells
  in
  let trio =
    let loss, fairness, byz_frac = trio_cell in
    List.map
      (fun (policy_name, policy) ->
        run_cell ~n ~deletions ~loss ~fairness ~byz_frac ~policy ~policy_name ())
      trio_policies
  in
  (n, deletions, sweep, trio)

let find_row rows (loss, fairness, byz_frac) =
  List.find
    (fun r -> r.loss = loss && r.fairness = fairness && r.byz_frac = byz_frac)
    rows

let run ~quick =
  let n, deletions, sweep, trio = compute ~quick in
  let closed_totals, closed_sig = run_closed_form ~n ~deletions () in
  let closed = Cost.amortized_messages closed_totals in
  let sweep_rows = List.map fst sweep in
  let trio_rows = List.map fst trio in
  let baseline = find_row sweep_rows (0.0, 1, 0.0) in
  let ok = ref true in
  (* The baseline cell (none + sync) prices every repair with the
     synchronous fast-path protocols: it converges, never escalates,
     and is the cheapest cell of the sweep. *)
  ok :=
    !ok
    && baseline.escalations = 0
    && baseline.unconverged = 0
    && List.for_all
         (fun r ->
           (r.loss, r.fairness, r.byz_frac) = (0.0, 1, 0.0) || baseline.amortized < r.amortized)
         (sweep_rows @ trio_rows);
  (* Plan-independence of the healed graph: the backend never touches
     the engine RNG, so every cell (and the trio) heals identically. *)
  List.iter (fun (_, s) -> ok := !ok && s = closed_sig) (sweep @ trio);
  (* Fault monotonicity within the measured cells (same seeds, same
     attack): more loss, more unfairness or more Byzantine senders can
     only make the same repairs dearer. The closed form is a *model*,
     not a floor — measured low-loss sync repairs may legitimately land
     a few percent under it — so sync loss cells are held to a closeness
     band around the closed form instead, while the async and Byzantine
     cells (the regimes the lossless pricing silently ignored) must
     exceed it outright. *)
  let cell = find_row sweep_rows in
  ok := !ok && (cell (0.1, 1, 0.0)).amortized >= (cell (0.05, 1, 0.0)).amortized;
  ok := !ok && (cell (0.1, 4, 0.0)).amortized >= (cell (0.0, 4, 0.0)).amortized;
  ok := !ok && (cell (0.1, 4, 0.1)).amortized >= (cell (0.1, 4, 0.0)).amortized;
  ok := !ok && (cell (0.1, 4, 0.0)).rounds >= (cell (0.1, 1, 0.0)).rounds;
  List.iter
    (fun r ->
      if r.loss > 0.0 && r.fairness = 1 && r.byz_frac = 0.0 then
        ok :=
          !ok
          && r.amortized >= 0.8 *. closed
          && r.amortized <= 1.5 *. closed
      else if r.fairness > 1 || r.byz_frac > 0.0 then ok := !ok && r.amortized > closed)
    sweep_rows;
  (* Loss <= 10% with generous round budget: every repair quiesces. *)
  List.iter
    (fun r -> if r.byz_frac = 0.0 then ok := !ok && r.unconverged = 0)
    sweep_rows;
  (* Adaptive defenses only pay when a phase is loud: honest lossy runs
     never escalate and beat the always-on stack; Byzantine runs do
     escalate. *)
  let tr name = List.find (fun r -> r.policy = name) trio_rows in
  let t_none = tr "static-none" and t_adaptive = tr "adaptive" and t_all = tr "static-all" in
  ok := !ok && t_adaptive.escalations = 0 && t_adaptive.messages = t_none.messages;
  ok := !ok && t_adaptive.messages < t_all.messages;
  let byz = find_row sweep_rows (0.0, 1, 0.1) in
  ok := !ok && byz.escalations > 0;
  let fmt_row r =
    [
      Common.f ~d:2 r.loss;
      string_of_int r.fairness;
      Common.f ~d:2 r.byz_frac;
      r.policy;
      string_of_int r.repairs;
      string_of_int r.messages;
      Common.f ~d:1 r.amortized;
      Common.f ~d:2 r.overhead;
      string_of_int r.rounds;
      string_of_int r.escalations;
      string_of_int r.unconverged;
    ]
  in
  let table =
    Table.render
      ~header:
        [ "loss p"; "F"; "byz"; "policy"; "repairs"; "messages"; "amortized";
          "overhead"; "rounds"; "escal"; "unconv" ]
      (List.map fmt_row (sweep_rows @ trio_rows))
  in
  let saving =
    if t_all.messages > 0 then
      100.0
      *. float_of_int (t_all.messages - t_adaptive.messages)
      /. float_of_int t_all.messages
    else 0.0
  in
  {
    Exp.table;
    notes =
      [
        Exp.note_verdict !ok
          "the fault-free baseline cell converges without escalations and is the cheapest \
           cell, every cell heals the identical graph, pricing is monotone in each fault knob \
           (low-loss sync cells stay within a 0.8-1.5x band of the closed form; \
           async/Byzantine cells exceed it), and adaptive defenses escalate only under \
           Byzantine senders while beating the always-on stack on honest faults";
        Printf.sprintf
          "n=%d, %d seeded deletions per cell; identical attack in every cell (the pricing \
           backend draws only from its private RNG); closed-form amortized cost %s" n deletions
          (Common.f ~d:1 closed);
        Printf.sprintf
          "policy trio at (p=%.2f, F=%d, byz=%.2f): adaptive charges %d msgs vs %d always-on \
           (%.1f%% saved) with %d escalations — the premium is paid only when cross-validation \
           is loud" (let l, _, _ = trio_cell in l)
          (let _, f, _ = trio_cell in f)
          (let _, _, b = trio_cell in b)
          t_adaptive.messages t_all.messages saving t_adaptive.escalations;
        "closed forms still price the phases too local to simulate (splices, \
         free-node queries); measured rows re-price election / cloud build / combine";
      ];
    ok = !ok;
  }

let exp =
  {
    Exp.id = "E15";
    title = "Fault-aware re-pricing of the amortized message bound";
    claim =
      "E7's amortized O(kappa log n) message bound is priced losslessly; re-pricing the \
       same attack under loss x fairness x Byzantine fraction shows the honest cost of \
       delivery faults, while adaptive defense escalation avoids the always-on premium on \
       fault-free repairs";
    run = (fun ~quick -> run ~quick);
  }
