type stats = {
  rounds : int;
  messages : int;
  words : int;
  converged : bool;
  dropped : int;
  duplicated : int;
  delayed : int;
  tampered : int;
  escalations : int;
}

let add s (n : Netsim.stats) =
  {
    rounds = s.rounds + n.Netsim.rounds;
    messages = s.messages + n.Netsim.messages;
    words = s.words + n.Netsim.words;
    converged = s.converged && n.Netsim.converged;
    dropped = s.dropped + n.Netsim.dropped;
    duplicated = s.duplicated + n.Netsim.duplicated;
    delayed = s.delayed + n.Netsim.delayed;
    tampered = s.tampered + n.Netsim.tampered;
    escalations = s.escalations;
  }

let zero =
  { rounds = 0; messages = 0; words = 0; converged = true; dropped = 0; duplicated = 0;
    delayed = 0; tampered = 0; escalations = 0 }

(* Phase k of a composite repair gets its own fault-RNG and delay-
   adversary streams so the same losses and reorderings do not recur in
   lockstep across phases. *)
let phase_plan plan k = Fault_plan.reseed plan k
let phase_sched schedule k = Schedule.reseed schedule k

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
    let tr = sc.Xheal_obs.Scope.tracer in
    Xheal_obs.Tracer.claim_clock tr "net-virtual";
    Xheal_obs.Tracer.begin_span tr ~track:Xheal_obs.Tracer.control_track ~name ~now:0;
    let r = f () in
    Xheal_obs.Tracer.end_span tr ~track:Xheal_obs.Tracer.control_track ~now:0;
    r

(* Fold one finished phase into the per-phase counters and move the
   timeline past it. *)
let finish_phase obs phase (s : Netsim.stats) acc =
  Proto_obs.phase_counters obs phase ~messages:s.Netsim.messages ~rounds:s.Netsim.rounds;
  Proto_obs.advance_base obs s.Netsim.rounds;
  add acc s

(* ------------------------------------------------------------------ *)
(* Adaptive defense escalation. Under [Defense.Adaptive], each phase
   first runs with the relaxed (cheap) defense set and the repair then
   cross-validates its outcome using only information an honest
   participant set legitimately holds — no peeking at the fault plan or
   the simulator's tamper counters. A loud phase is re-run with the
   escalated set; both runs' traffic is charged and one escalation is
   counted, so fault-free repairs never pay the defense premium. *)

let count_escalation obs phase =
  ( match obs with
  | None -> ()
  | Some sc ->
    Xheal_obs.Metrics.incr
      (Xheal_obs.Metrics.counter sc.Xheal_obs.Scope.metrics
         ("repair.escalations." ^ phase)) );
  ()

let escalate s = { s with escalations = s.escalations + 1 }

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
   judges the relaxed outcome. Returns the folded accumulator and the
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
      (escalate (finish_phase obs phase s1 acc), r1)
    end
    else (acc, r0)

(* ------------------------------------------------------------------ *)

let default_policy = Defense.Static Defense.none

let build_phase ~rng ?obs ?backoff ~defense ~plan ~schedule ?max_rounds ~d ~leader ~members
    acc =
  if simple plan schedule then
    let s, _ = Cloud_build.run ~rng ?obs ~d ~leader ~members () in
    finish_phase obs "cloud-build" s acc
  else
    let acc, _ =
      adaptive_phase obs ~phase:"cloud-build" ~policy:defense
        ~suspect:(fun s edges -> build_suspicious ~members s edges)
        ~run:(fun dfn ->
          Cloud_build.run_robust ~rng ?obs ~plan:(phase_plan plan 2)
            ~schedule:(phase_sched schedule 2) ?backoff ~defense:dfn ?max_rounds ~d ~leader
            ~members ())
        acc
    in
    acc

(* The election phase (fast path or hardened-with-escalation), folded
   into [acc]; returns the elected leader too. *)
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
        let s, leader =
          Election.run_robust ~rng ?obs ~plan:(phase_plan plan 1)
            ~schedule:(phase_sched schedule 1) ?backoff ~defense:dfn ~beliefs ?max_rounds
            members
        in
        (s, (leader, beliefs)))
      acc
    |> fun (acc, (leader, _)) -> (acc, leader)

let primary_build ~rng ?(plan = Fault_plan.none) ?(schedule = Schedule.sync) ?backoff
    ?max_rounds ~d ~neighbors () =
  match neighbors with
  | [] -> zero
  | _ ->
    let defense = default_policy in
    let acc, leader =
      elect_phase ~rng ?backoff ~defense ~plan ~schedule ?max_rounds ~members:neighbors zero
    in
    let leader = Option.value ~default:(List.hd neighbors) leader in
    build_phase ~rng ?backoff ~defense ~plan ~schedule ?max_rounds ~d ~leader ~members:neighbors
      acc

(* Standalone phase entry points for the engine's pricing backend
   ([Pricing]): the engine prices election and build as separate cost
   phases (distinct report labels), so it needs them separately here
   too. Semantics and per-phase fault streams match the corresponding
   phase inside {!primary_build}. *)

let elect ~rng ?obs ?(plan = Fault_plan.none) ?(schedule = Schedule.sync)
    ?(defense = default_policy) ?max_rounds ~members () =
  match members with
  | [] -> (zero, None)
  | _ ->
    repair_span obs "repair:elect" (fun () ->
        elect_phase ~rng ?obs ~defense ~plan ~schedule ?max_rounds ~members zero)

let build ~rng ?obs ?(plan = Fault_plan.none) ?(schedule = Schedule.sync)
    ?(defense = default_policy) ?max_rounds ~d ~leader ~members () =
  match members with
  | [] -> zero
  | _ ->
    repair_span obs "repair:build" (fun () ->
        build_phase ~rng ?obs ~defense ~plan ~schedule ?max_rounds ~d ~leader ~members zero)

let combine ~rng ?obs ?(plan = Fault_plan.none) ?(schedule = Schedule.sync)
    ?(defense = default_policy) ?max_rounds ~d ~union ~initiator () =
  repair_span obs "repair:combine" (fun () ->
      let expected = Xheal_graph.Graph.nodes union in
      let acc, collected =
        if simple plan schedule then begin
          let bfs_stats, collected = Bfs_echo.run ?obs ~graph:union ~root:initiator () in
          (finish_phase obs "bfs-echo" bfs_stats zero, collected)
        end
        else
          adaptive_phase obs ~phase:"bfs-echo" ~policy:defense
            ~suspect:(fun s collected -> echo_suspicious ~expected s collected)
            ~run:(fun dfn ->
              Bfs_echo.run_robust ?obs ~plan:(phase_plan plan 3)
                ~schedule:(phase_sched schedule 3) ~defense:dfn ?max_rounds ~graph:union
                ~root:initiator ())
            zero
      in
      let members = Option.value ~default:[ initiator ] collected in
      build_phase ~rng ?obs ~defense ~plan ~schedule ?max_rounds ~d ~leader:initiator
        ~members acc)
