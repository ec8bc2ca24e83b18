module Cost = Xheal_core.Cost
module Graph = Xheal_graph.Graph

let measured_of (s : Dist_repair.stats) =
  {
    Cost.m_rounds = s.Dist_repair.rounds;
    m_messages = s.Dist_repair.messages;
    m_converged = s.Dist_repair.converged;
    m_dropped = s.Dist_repair.dropped;
    m_duplicated = s.Dist_repair.duplicated;
    m_delayed = s.Dist_repair.delayed;
    m_tampered = s.Dist_repair.tampered;
    m_escalations = s.Dist_repair.escalations;
  }

(* Each engine phase gets fault/delay streams derived from the engine's
   monotone phase counter, on top of the per-protocol-phase reseed
   [Dist_repair] applies internally — so two engine phases never replay
   the same loss pattern, and a fixed (plan, schedule, seed) triple
   replays bit-for-bit. *)
let phase_view ~phase plan schedule =
  (Fault_plan.reseed plan phase, Schedule.reseed schedule phase)

let measured_of_net (s : Netsim.stats) =
  {
    Cost.m_rounds = s.Netsim.rounds;
    m_messages = s.Netsim.messages;
    m_converged = s.Netsim.converged;
    m_dropped = s.Netsim.dropped;
    m_duplicated = s.Netsim.duplicated;
    m_delayed = s.Netsim.delayed;
    m_tampered = s.Netsim.tampered;
    m_escalations = 0;
  }

(* The graph a combine's BFS-echo runs over: the absorbed clouds'
   members and current edges. The clouds all touched the deleted node,
   so its ex-neighbours can relay between them (NoN); model that relay
   with one edge from the first cloud's first member to each other
   cloud's first member. *)
let combine_union clouds =
  let g = Graph.create () in
  List.iter
    (fun (members, edges) ->
      List.iter (Graph.add_node g) members;
      List.iter (fun (u, v) -> if u <> v then ignore (Graph.add_edge g u v)) edges)
    clouds;
  (match clouds with
  | (first :: _, _) :: rest ->
    List.iter
      (function
        | anchor :: _, _ -> if anchor <> first then ignore (Graph.add_edge g first anchor)
        | [], _ -> ())
      rest
  | _ -> ());
  g

let backend ?obs ?(defense = Defense.Static Defense.none) ?(max_rounds = 10_000) ?(seed = 0)
    ~d () =
  if max_rounds < 0 then invalid_arg "Pricing.backend: max_rounds must be >= 0";
  if d < 1 then invalid_arg "Pricing.backend: d must be >= 1";
  (* The backend's private RNG: protocol-internal draws (election ranks,
     H-graph samples) never touch the engine's RNG, so the healed graph
     is identical under any plan. *)
  let rng = Random.State.make [| 0x9e3779b9; seed |] in
  let run_elect ~plan ~schedule ~phase ~members =
    match members with
    | [] | [ _ ] -> (Cost.zero_measured, List.nth_opt members 0)
    | _ ->
      let plan, schedule = phase_view ~phase plan schedule in
      let members = List.sort_uniq Int.compare members in
      let s, leader =
        Dist_repair.elect ~rng ?obs ~plan ~schedule ~defense ~max_rounds ~members ()
      in
      (measured_of s, leader)
  in
  let run_build ~plan ~schedule ~phase ~leader ~members =
    if List.length members <= 1 then Cost.zero_measured
    else begin
      let plan, schedule = phase_view ~phase plan schedule in
      let members = List.sort_uniq Int.compare members in
      let leader = if List.mem leader members then leader else List.hd members in
      let s =
        Dist_repair.build ~rng ?obs ~plan ~schedule ~defense ~max_rounds ~d ~leader ~members ()
      in
      measured_of s
    end
  in
  let run_combine ~plan ~schedule ~phase ~clouds =
    let plan, schedule = phase_view ~phase plan schedule in
    let union = combine_union clouds in
    match Graph.nodes union with
    | [] | [ _ ] -> Cost.zero_measured
    | initiator :: _ ->
      let s =
        Dist_repair.combine ~rng ?obs ~plan ~schedule ~defense ~max_rounds ~d ~union
          ~initiator ()
      in
      measured_of s
  in
  let run_detect ~plan ~schedule ~phase ~victim ~peers ~config =
    match List.filter (fun v -> v <> victim) (List.sort_uniq Int.compare peers) with
    | [] ->
      (* An isolated victim has no monitors: nothing can be detected,
         and nothing is charged. *)
      (Cost.zero_measured, Xheal_fault.Detect.no_outcome)
    | others ->
      let plan, schedule = phase_view ~phase plan schedule in
      let group = victim :: others in
      let clique = List.map (fun u -> (u, List.filter (fun v -> v <> u) group)) group in
      let s, outcome =
        Failure_detector.run ?obs ~plan ~schedule ~max_rounds ~config ~victim
          ~crash_at:config.Xheal_fault.Detect.period ~peers:clique ()
      in
      (measured_of_net s, outcome)
  in
  { Cost.run_elect; run_build; run_combine; run_detect }
