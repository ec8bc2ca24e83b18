(** Heartbeat/timeout failure detection over the simulator's virtual
    time — the end of the deletion oracle. Every monitored node beats to
    its peers each {!Xheal_fault.Detect.t} period until the horizon; a
    peer silent past its (ladder-adjusted) timeout is suspected, the
    suspicion is gossiped, peers holding fresh evidence refute it, and
    a suspicion that survives the confirm window unrefuted is confirmed
    dead — the event that triggers a repair instead of the omniscient
    oracle telling the neighbours.

    Degrades gracefully on false suspicion: a refuted suspect returns
    to good standing with its timeout ladder climbed one rung (so the
    same slow link does not re-trip immediately), and a run with zero
    confirmations reports [detected = false] — no repair is triggered,
    no phantom clouds are built.

    Entirely message-driven and RNG-free: every state transition is a
    function of delivered messages and the virtual clock, so seeded
    runs (fault plans and asynchronous schedules included) replay
    bit-for-bit. *)

type config = Xheal_fault.Detect.t
(** Alias so engine-level callers can say [Failure_detector.config]. *)

val run :
  ?obs:Xheal_obs.Scope.t ->
  ?plan:Fault_plan.t ->
  ?schedule:Schedule.t ->
  ?max_rounds:int ->
  config:config ->
  victim:int ->
  ?crash_at:int ->
  peers:(int * int list) list ->
  unit ->
  Netsim.stats * Xheal_fault.Detect.outcome
(** Runs the detector on a fresh simulator under the given fault plan
    and delivery schedule (defaults {!Fault_plan.none},
    {!Schedule.sync}). Each [(node, watched)] entry of [peers] beats to
    — and watches — exactly its [watched] list, so the monitoring
    topology is the caller's choice (Xheal uses the NoN clique over a
    victim's neighbourhood). With [crash_at] the victim's crash is
    merged into the plan's crash schedule and the returned outcome's
    [latency] is rebased to first-confirmation-minus-crash — the
    quantity {!Xheal_fault.Detect.latency_bound} bounds; without it
    [latency] is the absolute virtual time of the first confirmation
    ([-1] if none). Without [crash_at] nobody dies: the run measures
    the false-suspicion behaviour of the plan/schedule alone, and
    [detected] stays [false] unless loss is heavy enough to defeat
    refutation. [victim] must appear among [peers]; [crash_at] must be
    [>= 0]. The quiescence grace window
    covers a full beat period, round-trip fairness slack, and the
    confirm window, so pending confirmations land before the run is
    declared idle. *)
