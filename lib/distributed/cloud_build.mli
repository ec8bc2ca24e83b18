(** Expander-cloud construction protocol: a leader that knows all member
    addresses locally samples a κ-regular H-graph (clique when small),
    tells every member its incident edges, and the members handshake each
    fresh edge. Three rounds; [O(κ·z)] messages — the cost the paper
    charges for building a cloud once a leader exists. *)

val run :
  rng:Random.State.t ->
  ?obs:Xheal_obs.Scope.t ->
  d:int ->
  leader:int ->
  members:int list ->
  unit ->
  Netsim.stats * (int * int) list
(** Returns the simulation stats and the edge list that was installed
    (sorted canonical pairs). [leader] must be a member. With [obs] the
    run is wrapped in a ["cloud-build"] span on the control track. *)

val run_robust :
  rng:Random.State.t ->
  ?obs:Xheal_obs.Scope.t ->
  ?plan:Fault_plan.t ->
  ?schedule:Schedule.t ->
  ?backoff:Backoff.t ->
  ?defense:Defense.t ->
  ?give_up:int ->
  ?max_rounds:int ->
  d:int ->
  leader:int ->
  members:int list ->
  unit ->
  Netsim.stats * (int * int) list
(** Fault-tolerant build: Edges distribution is acked and retried on
    the [backoff] cadence, and the per-edge handshake is an
    initiator/responder exchange with retries, so message loss,
    duplication, and delay stretch the run without corrupting it.
    Retries fire on elapsed virtual time, so the build also runs on
    asynchronous schedules ([schedule], default {!Schedule.sync}). A
    crashed member makes the run exhaust [max_rounds] and report
    [converged = false]. The returned edge list is the leader's plan, as
    in {!run}.

    [backoff] (default {!Backoff.default}) paces the Edges and Hello
    retry loops; the grace window covers its longest interval.

    With [defense.edge_mutual] on, the responding (higher-id) endpoint
    answers a Hello only when the initiator appears in its own incident
    list — an edge forged in transit toward one endpoint only is never
    established — and Hello probing is capped at [give_up] (default 12)
    attempts per peer, bounding the probe traffic wasted on phantom
    endpoints (which, being unregistered, never threatened quiescence
    in the first place). *)
