(** End-to-end repair operations measured as actual protocols on the
    simulator, phase by phase (the phases of Theorem 5's proof). These
    are the measured counterparts of the closed-form charges in
    {!Xheal_core.Cost}: the engine's pricing backend ({!Pricing}) runs
    {!elect}, {!build} and {!combine} for every repair it prices, and
    E6, E12 and E13 measure {!primary_build} standalone.

    Each operation takes an optional {!Fault_plan} and an optional
    delivery {!Schedule}. With {!Fault_plan.none} and {!Schedule.sync}
    (the defaults) the original fault-free synchronous protocols run
    and every stat is identical to the historical behaviour; with a
    faulty plan or an asynchronous schedule the retry/ack-hardened
    protocol variants run instead (each phase on its own derived fault
    and delay streams), and [converged] reports whether every phase
    actually quiesced. Under an asynchronous schedule [rounds] is the
    summed virtual time-to-quiescence of the phases — the quantity E13
    sweeps against the fairness parameter.

    The engine-facing operations ({!elect}, {!build}, {!combine}) also
    take an optional observability scope ([obs]). When present, the
    operation is wrapped in a repair-level span ([repair:elect] /
    [repair:build] / [repair:combine]) on the control track, each
    phase opens its own protocol span nested inside it, the tracer's
    virtual-time base is advanced past every phase so a multi-phase
    repair lays out sequentially on one timeline, and per-phase counters
    [repair.phase.<phase>.{messages,rounds,runs}] accumulate the
    breakdown E7 reports.

    The engine, not this module, reports priced phases to a
    {!Xheal_obs.Monitor}: a phase that failed to quiesce lands as a
    [Convergence] violation naming its repair. *)

type stats = {
  rounds : int;
  messages : int;
  words : int;  (** CONGEST payload volume (see {!Msg.size_words}). *)
  converged : bool;  (** All phases quiesced; a timed-out phase forces [false]. *)
  dropped : int;
  duplicated : int;
  delayed : int;
  tampered : int;  (** Sends rewritten/swallowed by Byzantine senders. *)
  escalations : int;
      (** Phases re-run with defenses escalated under
          [Defense.Adaptive]; always [0] under [Static]. *)
}

val primary_build :
  rng:Random.State.t ->
  ?plan:Fault_plan.t ->
  ?schedule:Schedule.t ->
  ?backoff:Backoff.t ->
  ?max_rounds:int ->
  d:int ->
  neighbors:int list ->
  unit ->
  stats
(** Case 1: the deleted node's neighbours elect a leader (they know each
    other via NoN), which builds and distributes the new primary cloud,
    with no defenses. [backoff] (default {!Backoff.default}) paces the
    retries of every hardened phase; the fault-free synchronous fast
    path runs the classic protocols and ignores it. *)

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
  stats
(** The expensive path: BFS-echo over the union of the clouds being
    merged gathers every address at the initiator, which then builds and
    distributes one big cloud.

    [defense] (default [Defense.Static Defense.none], bit-identical to
    the historical no-defense behaviour) chooses the defense policy of
    every hardened phase, here and in {!elect} and {!build}; hardened
    phases retry at {!Backoff.default}'s pace. Under
    {!Defense.Adaptive} each phase runs relaxed first and is re-run
    escalated only when its outcome cross-validates as inconsistent
    (see {!Defense.policy}); both runs are charged and
    [stats.escalations] counts the re-runs. *)

val elect :
  rng:Random.State.t ->
  ?obs:Xheal_obs.Scope.t ->
  ?plan:Fault_plan.t ->
  ?schedule:Schedule.t ->
  ?defense:Defense.policy ->
  ?max_rounds:int ->
  members:int list ->
  unit ->
  stats * int option
(** The election phase alone, as one operation (span
    [repair:elect]) — the engine's pricing backend ({!Pricing}) charges
    election and build as separate cost phases. Returns the elected
    leader ([None] on an empty member list or an unconverged hardened
    run). Fault/delay streams and defense handling match the election
    phase inside {!primary_build}. *)

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
  stats
(** The cloud-build phase alone (span [repair:build]); [leader] must be
    a member. Counterpart of the build phase inside {!primary_build}. *)
