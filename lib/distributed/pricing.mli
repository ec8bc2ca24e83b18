(** The engine-side pricing backend: implements
    {!Xheal_core.Cost.backend} by driving the {!Dist_repair} protocols
    on the simulator. An engine created with it charges every repair
    what its protocols actually cost instead of the closed forms: the
    synchronous fast-path protocols under a lossless plan, and under a
    faulty plan or async schedule the hardened ones, with retries,
    duplicates, delays, crash timeouts and (under an adaptive policy)
    defense escalations included. It is the only path on which engine
    repairs run as protocols; a faulty plan requires it, because
    [Cost.elect]/[distribute]/[combine] assume perfect synchronous
    delivery. A phase that hits [max_rounds] comes back with
    [m_converged = false]; an engine with a monitor records it as a
    [Convergence] violation naming the repair.

    Determinism: the backend owns a private RNG seeded from [seed];
    per-engine-phase fault and delay streams are derived from the
    engine's monotone phase counter via [Fault_plan.reseed] /
    [Schedule.reseed]. A fixed (plan, schedule, seed, attack) tuple
    therefore replays bit-for-bit, and the engine's own RNG is never
    touched — the healed graph is identical under any plan. *)

val backend :
  ?obs:Xheal_obs.Scope.t ->
  ?defense:Defense.policy ->
  ?max_rounds:int ->
  ?seed:int ->
  d:int ->
  unit ->
  Xheal_core.Cost.backend
(** [backend ~d ()] with defaults: no observability, defense policy
    [Static Defense.none], [max_rounds = 10_000], [seed = 0]. Retries
    are paced by {!Backoff.default}. [d] is the engine's H-graph degree
    parameter ([Config.d], κ = 2d).
    @raise Invalid_argument if [max_rounds < 0] or [d < 1], when the
    backend is built rather than at the first repair it prices.

    [obs] must be a {e different} scope from the engine's: protocol
    spans ([repair:elect] / [repair:build] / [repair:combine] with their
    [election] / [cloud-build] / [bfs-echo] phases, and
    [failure-detector]) land on Netsim virtual time ("net-virtual"
    clock), the engine's on cost-model rounds ("engine-rounds") —
    sharing one scope trips [Tracer.check] (the two-clock convention).

    [run_combine] runs its BFS-echo over the union of the absorbed
    clouds' snapshots, bridged through each cloud's first member (the
    deleted node's ex-neighbourhood, which the paper notes stays
    mutually reachable during repair), then one build over the union.

    [defense = Defense.adaptive ()] gives the escalate-on-inconsistency
    behaviour E15 prices: fault-free phases run undefended and only
    loud phases are re-run hardened.

    The backend's [run_detect] closure prices the detection phase of a
    detector-triggered deletion: it runs {!Failure_detector.run} on the
    NoN clique over [victim :: peers] under the phase-reseeded plan and
    schedule, with the victim crashing at the config's beat period, and
    returns the simulator bill alongside the detection outcome. An
    isolated victim (no peers) costs nothing and reports
    {!Xheal_fault.Detect.no_outcome}. *)
