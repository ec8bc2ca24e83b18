module Cost = Xheal_core.Cost
module Graph = Xheal_graph.Graph
module Scope = Xheal_obs.Scope
module Tracer = Xheal_obs.Tracer
module Metrics = Xheal_obs.Metrics

(* The one converter from simulator stats to a bill. Phase runners sum
   bills with [Cost.add_measured]; escalations are counted on top. *)
let measured_of_net (s : Netsim.stats) =
  {
    Cost.m_rounds = s.Netsim.rounds;
    m_messages = s.Netsim.messages;
    m_words = s.Netsim.words;
    m_converged = s.Netsim.converged;
    m_dropped = s.Netsim.dropped;
    m_duplicated = s.Netsim.duplicated;
    m_delayed = s.Netsim.delayed;
    m_tampered = s.Netsim.tampered;
    m_escalations = 0;
  }

(* Phase k of a composite run gets its own fault-RNG and delay-adversary
   streams, so the same losses and reorderings do not recur in lockstep
   across phases. The backend reseeds by the engine's monotone phase
   counter, and each protocol phase of a repair reseeds again by its
   kind (1 election, 2 build, 3 echo); a fixed (plan, schedule, seed)
   triple therefore replays bit-for-bit. *)
let reseed plan schedule k = (Fault_plan.reseed plan k, Schedule.reseed schedule k)

(* The classic (retry-free, round-counting) protocols are only sound on
   a perfect synchronous network; any fault plan or asynchronous
   schedule routes through the hardened variants. *)
let simple plan schedule = Fault_plan.is_none plan && Schedule.is_sync schedule

(* A repair-level span covers every phase of one operation. Each phase
   restarts its simulator clock at 0, so after a phase completes we
   shift the tracer base forward by that phase's duration; the span is
   opened and closed at relative time 0 and therefore brackets exactly
   [first phase start .. last phase end] on the shared timeline. *)
let repair_span obs name f =
  match obs with
  | None -> f ()
  | Some sc ->
    let tr = sc.Scope.tracer in
    Tracer.claim_clock tr "net-virtual";
    Tracer.begin_span tr ~track:Tracer.control_track ~name ~now:0;
    let r = f () in
    Tracer.end_span tr ~track:Tracer.control_track ~now:0;
    r

(* Fold one finished phase into the bill and into the per-phase
   counters [repair.phase.<phase>.{messages,rounds,runs}] (the breakdown
   E7 reports), and move the timeline past it. *)
let finish_phase obs phase (s : Netsim.stats) acc =
  (match obs with
  | None -> ()
  | Some sc ->
    let c suffix = Metrics.counter sc.Scope.metrics ("repair.phase." ^ phase ^ "." ^ suffix) in
    Metrics.incr_by (c "messages") s.Netsim.messages;
    Metrics.incr_by (c "rounds") s.Netsim.rounds;
    Metrics.incr (c "runs");
    let tr = sc.Scope.tracer in
    Tracer.claim_clock tr "net-virtual";
    Tracer.set_base tr (Tracer.base tr + s.Netsim.rounds));
  Cost.add_measured acc (measured_of_net s)

(* ------------------------------------------------------------------ *)
(* Adaptive defense escalation. Under [Defense.Adaptive], each phase
   first runs with the relaxed (cheap) defense set and the repair then
   cross-validates its outcome using only information an honest
   participant set legitimately holds — no peeking at the fault plan or
   the simulator's tamper counters. A loud phase is re-run with the
   escalated set; both runs' traffic is charged and one escalation is
   counted, so fault-free repairs never pay the defense premium. *)

let count_escalation obs phase =
  match obs with
  | None -> ()
  | Some sc -> Metrics.incr (Metrics.counter sc.Scope.metrics ("repair.escalations." ^ phase))

let in_roster members u = List.mem u members && not (Byzantine.is_phantom u)

(* Election is loud when it failed to quiesce, elected nobody, elected
   an id outside the participant roster (phantoms included), any
   participant adopted an out-of-roster belief, or two participants
   adopted different leaders. *)
let election_suspicious ~members (s : Netsim.stats) leader beliefs =
  (not s.Netsim.converged)
  || (match leader with None -> true | Some l -> not (in_roster members l))
  || Hashtbl.fold (fun _ b acc -> acc || not (in_roster members b)) beliefs false
  || (* Belief disagreement as two commutative reductions, so hash order
        never matters: beliefs differ iff their min and max differ. *)
  (Hashtbl.length beliefs > 0
  &&
  let lo = Hashtbl.fold (fun _ b acc -> Int.min acc b) beliefs max_int in
  let hi = Hashtbl.fold (fun _ b acc -> Int.max acc b) beliefs min_int in
  lo <> hi)

(* A build is loud when it failed to quiesce or the installed edge plan
   mentions an endpoint outside the member roster. *)
let build_suspicious ~members (s : Netsim.stats) edges =
  (not s.Netsim.converged)
  || List.exists (fun (u, v) -> not (in_roster members u && in_roster members v)) edges

(* A BFS echo is loud when it failed to quiesce, never completed, or the
   collected address list differs from the cloud roster the initiator
   already holds (missing members or phantom extras). *)
let echo_suspicious ~expected (s : Netsim.stats) collected =
  (not s.Netsim.converged)
  ||
  match collected with
  | None -> true
  | Some addrs -> List.sort_uniq Int.compare addrs <> expected

(* Run one hardened phase under the policy: [run d] executes the phase
   with defense set [d] and returns [(netstats, result)]; [suspect]
   judges the relaxed outcome. Returns the folded bill and the
   authoritative result (the escalated run's, when it fired). *)
let adaptive_phase obs ~phase ~policy ~suspect ~run acc =
  match (policy : Defense.policy) with
  | Defense.Static d ->
    let s, r = run d in
    (finish_phase obs phase s acc, r)
  | Defense.Adaptive { relaxed; escalated } ->
    let s0, r0 = run relaxed in
    let acc = finish_phase obs phase s0 acc in
    if suspect s0 r0 then begin
      count_escalation obs phase;
      let s1, r1 = run escalated in
      let acc = finish_phase obs phase s1 acc in
      ({ acc with Cost.m_escalations = acc.Cost.m_escalations + 1 }, r1)
    end
    else (acc, r0)

(* ------------------------------------------------------------------ *)
(* The repair phases: fast path or hardened-with-escalation, each
   folded into the bill [acc]. *)

let default_policy = Defense.Static Defense.none

let build_phase ~rng ?obs ?backoff ~defense ~plan ~schedule ?max_rounds ~d ~leader ~members
    acc =
  if simple plan schedule then
    let s, _ = Cloud_build.run ~rng ?obs ~d ~leader ~members () in
    finish_phase obs "cloud-build" s acc
  else
    fst
      (adaptive_phase obs ~phase:"cloud-build" ~policy:defense
         ~suspect:(fun s edges -> build_suspicious ~members s edges)
         ~run:(fun dfn ->
           let plan, schedule = reseed plan schedule 2 in
           Cloud_build.run_robust ~rng ?obs ~plan ~schedule ?backoff ~defense:dfn ?max_rounds ~d
             ~leader ~members ())
         acc)

(* Also returns the elected leader. *)
let elect_phase ~rng ?obs ?backoff ~defense ~plan ~schedule ?max_rounds ~members acc =
  if simple plan schedule then begin
    let elect_stats, leader = Election.run ~rng ?obs members in
    (finish_phase obs "election" elect_stats acc, leader)
  end
  else
    adaptive_phase obs ~phase:"election" ~policy:defense
      ~suspect:(fun s (leader, beliefs) -> election_suspicious ~members s leader beliefs)
      ~run:(fun dfn ->
        let beliefs = Hashtbl.create (List.length members) in
        let plan, schedule = reseed plan schedule 1 in
        let s, leader =
          Election.run_robust ~rng ?obs ~plan ~schedule ?backoff ~defense:dfn ~beliefs
            ?max_rounds members
        in
        (s, (leader, beliefs)))
      acc
    |> fun (acc, (leader, _)) -> (acc, leader)

let primary_build ~rng ?(plan = Fault_plan.none) ?(schedule = Schedule.sync) ?backoff
    ?max_rounds ~d ~neighbors () =
  match neighbors with
  | [] -> Cost.zero_measured
  | _ ->
    let defense = default_policy in
    let acc, leader =
      elect_phase ~rng ?backoff ~defense ~plan ~schedule ?max_rounds ~members:neighbors
        Cost.zero_measured
    in
    let leader = Option.value ~default:(List.hd neighbors) leader in
    build_phase ~rng ?backoff ~defense ~plan ~schedule ?max_rounds ~d ~leader ~members:neighbors
      acc

let build ~rng ?obs ?(plan = Fault_plan.none) ?(schedule = Schedule.sync)
    ?(defense = default_policy) ?max_rounds ~d ~leader ~members () =
  match members with
  | [] -> Cost.zero_measured
  | _ ->
    repair_span obs "repair:build" (fun () ->
        build_phase ~rng ?obs ~defense ~plan ~schedule ?max_rounds ~d ~leader ~members
          Cost.zero_measured)

let combine ~rng ?obs ?(plan = Fault_plan.none) ?(schedule = Schedule.sync)
    ?(defense = default_policy) ?max_rounds ~d ~union ~initiator () =
  repair_span obs "repair:combine" (fun () ->
      let expected = Graph.nodes union in
      let acc, collected =
        if simple plan schedule then begin
          let bfs_stats, collected = Bfs_echo.run ?obs ~graph:union ~root:initiator () in
          (finish_phase obs "bfs-echo" bfs_stats Cost.zero_measured, collected)
        end
        else
          adaptive_phase obs ~phase:"bfs-echo" ~policy:defense
            ~suspect:(fun s collected -> echo_suspicious ~expected s collected)
            ~run:(fun dfn ->
              let plan, schedule = reseed plan schedule 3 in
              Bfs_echo.run_robust ?obs ~plan ~schedule ~defense:dfn ?max_rounds ~graph:union
                ~root:initiator ())
            Cost.zero_measured
      in
      let members = Option.value ~default:[ initiator ] collected in
      build_phase ~rng ?obs ~defense ~plan ~schedule ?max_rounds ~d ~leader:initiator
        ~members acc)

(* ------------------------------------------------------------------ *)
(* The engine-side backend. *)

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

let backend ?obs ?(defense = default_policy) ?(max_rounds = 10_000) ?(seed = 0) ~d () =
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
      let plan, schedule = reseed plan schedule phase in
      let members = List.sort_uniq Int.compare members in
      repair_span obs "repair:elect" (fun () ->
          elect_phase ~rng ?obs ~defense ~plan ~schedule ~max_rounds ~members
            Cost.zero_measured)
  in
  let run_build ~plan ~schedule ~phase ~leader ~members =
    if List.length members <= 1 then Cost.zero_measured
    else begin
      let plan, schedule = reseed plan schedule phase in
      let members = List.sort_uniq Int.compare members in
      let leader = if List.mem leader members then leader else List.hd members in
      build ~rng ?obs ~plan ~schedule ~defense ~max_rounds ~d ~leader ~members ()
    end
  in
  let run_combine ~plan ~schedule ~phase ~clouds =
    let plan, schedule = reseed plan schedule phase in
    let union = combine_union clouds in
    match Graph.nodes union with
    | [] | [ _ ] -> Cost.zero_measured
    | initiator :: _ ->
      combine ~rng ?obs ~plan ~schedule ~defense ~max_rounds ~d ~union ~initiator ()
  in
  let run_detect ~plan ~schedule ~phase ~victim ~peers ~config =
    match List.filter (fun v -> v <> victim) (List.sort_uniq Int.compare peers) with
    | [] ->
      (* An isolated victim has no monitors: nothing can be detected,
         and nothing is charged. *)
      (Cost.zero_measured, Xheal_fault.Detect.no_outcome)
    | others ->
      let plan, schedule = reseed plan schedule phase in
      let group = victim :: others in
      let clique = List.map (fun u -> (u, List.filter (fun v -> v <> u) group)) group in
      let s, outcome =
        Failure_detector.run ?obs ~plan ~schedule ~max_rounds ~config ~victim
          ~crash_at:config.Xheal_fault.Detect.period ~peers:clique ()
      in
      (measured_of_net s, outcome)
  in
  { Cost.run_elect; run_build; run_combine; run_detect }
