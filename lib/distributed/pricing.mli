(** Repairs priced as protocols: this module runs a repair's phases
    (the phases of Theorem 5's proof) on the simulator and bills each
    as a {!Xheal_core.Cost.measured}. {!backend} implements
    {!Xheal_core.Cost.backend} with them, so an engine created with it
    charges every repair what its protocols actually cost instead of
    the closed forms: the synchronous fast-path protocols under a
    lossless plan, and under a faulty plan or async schedule the
    hardened ones, with retries, duplicates, delays, crash timeouts and
    (under an adaptive policy) defense escalations included. It is the
    only path on which engine repairs run as protocols; a faulty plan
    requires it, because [Cost.elect]/[distribute]/[combine] assume
    perfect synchronous delivery. A phase that hits [max_rounds] comes
    back with [m_converged = false]; an engine with a monitor records
    it as a [Convergence] violation naming the repair.

    With {!Fault_plan.none} and {!Schedule.sync} (the defaults) every
    phase runs the fault-free synchronous protocols; with a faulty plan
    or an asynchronous schedule it runs their retry/ack-hardened
    variants, each protocol phase on its own derived fault and delay
    streams. Under an asynchronous schedule [m_rounds] is the summed
    virtual time-to-quiescence of the phases — the quantity E13 sweeps
    against the fairness parameter.

    Determinism: the backend owns a private RNG seeded from [seed];
    per-engine-phase fault and delay streams are derived from the
    engine's monotone phase counter via [Fault_plan.reseed] /
    [Schedule.reseed]. A fixed (plan, schedule, seed, attack) tuple
    therefore replays bit-for-bit, and the engine's own RNG is never
    touched — the healed graph is identical under any plan. *)

val primary_build :
  rng:Random.State.t ->
  ?plan:Fault_plan.t ->
  ?schedule:Schedule.t ->
  ?backoff:Backoff.t ->
  ?max_rounds:int ->
  d:int ->
  neighbors:int list ->
  unit ->
  Xheal_core.Cost.measured
(** Case 1: the deleted node's neighbours elect a leader (they know each
    other via NoN), which builds and distributes the new primary cloud,
    with no defenses. [backoff] (default {!Backoff.default}) paces the
    retries of every hardened phase; the fault-free synchronous fast
    path runs the classic protocols and ignores it. *)

val build :
  rng:Random.State.t ->
  ?obs:Xheal_obs.Scope.t ->
  ?plan:Fault_plan.t ->
  ?schedule:Schedule.t ->
  ?defense:Defense.policy ->
  ?max_rounds:int ->
  d:int ->
  leader:int ->
  members:int list ->
  unit ->
  Xheal_core.Cost.measured
(** The cloud-build phase alone (span [repair:build]); [leader] must be
    a member. Counterpart of the build phase inside {!primary_build}. *)

val combine :
  rng:Random.State.t ->
  ?obs:Xheal_obs.Scope.t ->
  ?plan:Fault_plan.t ->
  ?schedule:Schedule.t ->
  ?defense:Defense.policy ->
  ?max_rounds:int ->
  d:int ->
  union:Xheal_graph.Graph.t ->
  initiator:int ->
  unit ->
  Xheal_core.Cost.measured
(** The expensive path (span [repair:combine]): BFS-echo over the union
    of the clouds being merged gathers every address at the initiator,
    which then builds and distributes one big cloud.

    [defense] (default [Defense.Static Defense.none]) chooses the
    defense policy of every hardened phase; hardened phases retry at
    {!Backoff.default}'s pace. Under {!Defense.Adaptive} each phase
    runs relaxed first and is re-run escalated only when its outcome
    cross-validates as inconsistent (see {!Defense.policy}); both runs
    are charged and [m_escalations] counts the re-runs. *)

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
    Each repair-level span brackets its phases on one timeline, and
    per-phase counters [repair.phase.<phase>.{messages,rounds,runs}]
    accumulate the breakdown E7 reports.

    [run_elect] and [run_build] are the two phases of {!primary_build},
    priced separately because the engine reports them under distinct
    labels. [run_combine] is {!combine} over the union of the absorbed
    clouds' snapshots, bridged through each cloud's first member (the
    deleted node's ex-neighbourhood, which the paper notes stays
    mutually reachable during repair).

    [defense = Defense.adaptive] gives the escalate-on-inconsistency
    behaviour E15 prices: fault-free phases run undefended and only
    loud phases are re-run hardened.

    The backend's [run_detect] closure prices the detection phase of a
    detector-triggered deletion: it runs {!Failure_detector.run} on the
    NoN clique over [victim :: peers] under the phase-reseeded plan and
    schedule, with the victim crashing at the config's beat period, and
    returns the simulator bill alongside the detection outcome. An
    isolated victim (no peers) costs nothing and reports
    {!Xheal_fault.Detect.no_outcome}. *)
