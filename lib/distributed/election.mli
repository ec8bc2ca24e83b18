(** Randomized tournament leader election among a set of nodes that all
    know the participant list (the NoN precondition of the paper's cloud
    constructions). Each participant draws a private random rank;
    pairwise duels propagate the best rank up a binary bracket rooted at
    the lowest-id participant, which then broadcasts the winner.
    [⌈log₂ m⌉ + O(1)] rounds and [O(m)] duel messages plus [m − 1]
    broadcast messages — within the paper's [O(m log m)] budget. The
    winner is uniform over participants and unpredictable to the
    adversary (private coins). *)

val install :
  rng:Random.State.t -> Netsim.t -> int list -> unit -> int option
(** [install ~rng net participants] registers a handler per participant
    and returns a getter that yields the elected leader once the
    simulation has run ([None] before completion or on an empty list).
    Participants must not already be registered in [net]. The bracket
    duels on round-number equality, so it requires the synchronous
    schedule; use {!install_robust} on asynchronous schedules. *)

val run :
  rng:Random.State.t -> ?obs:Xheal_obs.Scope.t -> int list -> Netsim.stats * int option
(** Convenience: fresh simulator, install, run, return stats and leader.
    [obs] attaches an observability scope: the run is wrapped in an
    ["election"] span on the control track and the simulator records
    its per-message events into the same scope. *)

val install_robust :
  rng:Random.State.t ->
  ?obs:Xheal_obs.Scope.t ->
  ?backoff:Backoff.t ->
  ?defense:Defense.t ->
  ?beliefs:(int, int) Hashtbl.t ->
  Netsim.t ->
  int list ->
  unit ->
  int option
(** Fault-tolerant election for lossy/crashy/asynchronous networks:
    participants re-challenge a coordinator on the [backoff] cadence
    until they learn the outcome; the coordinator role rotates to the
    next-lowest id every 16 time units, so a crashed coordinator is
    replaced; Victory broadcasts are retried per member up to
    12 times so crashed members cannot block
    quiescence. All timeouts are elapsed virtual time, so the protocol
    is schedule-agnostic. Under no faults on the synchronous schedule
    this still elects the maximum private-rank participant, at the cost
    of extra ack traffic — use {!install} when the network is
    known-perfect; under heavy asynchrony the deadline path may elect
    from a partial view, which still yields a valid participant. With
    [obs], the deciding coordinator drops an ["elected"] instant on its
    own track at the decision time.

    [backoff] (default {!Backoff.default}) paces every retry loop:
    challenge re-sends, Victory re-broadcasts, and witness re-queries
    all wait [Backoff.interval] between attempts, so an exponential
    policy thins retry traffic on lossy runs without touching protocol
    logic.

    [defense] (default {!Defense.none}) toggles the Byzantine
    counter-measures: [rank_commit] excludes candidates caught
    announcing conflicting or out-of-domain ranks from the
    championship, admits a candidate only after a second consistent
    receipt of its rank (per-send rewrites are only catchable on
    repeat receipts), and holds the coordinator's heard-everyone fast
    path until every commitment settles; [victory_echo] parks each Victory claim until a
    rotating witness (consulted over a second path) confirms the same
    leader from its own adopted belief, acks the sender only after
    confirmation, and discards mismatched claims. With two or fewer
    participants no second path exists and [victory_echo] degenerates
    to direct adoption.

    [beliefs] (default: none) is filled with each node's adopted leader
    ([node → leader]) so callers can measure disagreement — with
    Byzantine senders in the plan, the shared return value alone cannot
    distinguish one corrupted belief from consensus. *)

val run_robust :
  rng:Random.State.t ->
  ?obs:Xheal_obs.Scope.t ->
  ?plan:Fault_plan.t ->
  ?schedule:Schedule.t ->
  ?backoff:Backoff.t ->
  ?defense:Defense.t ->
  ?beliefs:(int, int) Hashtbl.t ->
  ?max_rounds:int ->
  int list ->
  Netsim.stats * int option
(** Fresh simulator + {!install_robust} under the given fault plan and
    delivery schedule (default {!Schedule.sync}). The quiescence grace
    window is derived from the backoff policy's [max_interval] so capped
    exponential retries are never cut off early.
    [stats.converged = false] means the protocol was still retrying at
    [max_rounds]; the returned leader (if any) is then untrustworthy. *)
