(** Distributed BFS with echo (convergecast): the root floods the
    component, every node adopts its first discoverer as parent, and
    subtree address lists are echoed back up. Terminates in [O(ecc(root))]
    rounds with [O(m)] control messages plus one subtree message per
    node — the primitive the paper's combine operation uses to gather all
    cloud members at a leader. *)

val install :
  Netsim.t -> graph:Xheal_graph.Graph.t -> root:int -> unit -> int list option
(** Registers a handler for every node of the graph; communication only
    follows graph edges. The returned getter yields the sorted addresses
    collected at the root (the root's component) once the run finishes. *)

val run :
  ?obs:Xheal_obs.Scope.t ->
  graph:Xheal_graph.Graph.t ->
  root:int ->
  unit ->
  Netsim.stats * int list option
(** Fresh simulator + {!install}; with [obs], the run is wrapped in a
    ["bfs-echo"] span on the control track. *)

val install_robust :
  ?obs:Xheal_obs.Scope.t ->
  ?defense:Defense.t ->
  Netsim.t ->
  graph:Xheal_graph.Graph.t ->
  root:int ->
  unit ->
  int list option
(** Fault-tolerant flood/echo: Explores are retried on the
    {!Backoff.default} cadence until answered, Subtree echoes are retried until acked, and
    duplicate deliveries are deduplicated — so under message faults the
    collected component is stretched in time but never corrupted. Retries are clocked in elapsed virtual time, so
    the protocol is schedule-agnostic. The getter returns [None] if the
    echo never completed. With [obs], the root drops a ["collected"]
    instant on its own track when the echo completes.

    {!Backoff.default} paces all retry loops (Explore re-floods,
    Subtree re-echoes, quorum re-queries).

    With [defense.subtree_quorum] on, a child's [Subtree] claim is
    parked until every claimed member confirms its own participation
    over a direct [Vote] round-trip; unconfirmed ids are dropped after
    12 query attempts, the child is acked only once
    its claim settles, and only confirmed ids are merged — in-transit
    phantom members never reach the root. *)

val run_robust :
  ?obs:Xheal_obs.Scope.t ->
  ?plan:Fault_plan.t ->
  ?schedule:Schedule.t ->
  ?defense:Defense.t ->
  ?max_rounds:int ->
  graph:Xheal_graph.Graph.t ->
  root:int ->
  unit ->
  Netsim.stats * int list option
(** Fresh simulator + {!install_robust} under the given fault plan and
    delivery schedule (default {!Schedule.sync}); the quiescence grace
    window covers {!Backoff.default}'s longest interval. Check
    [stats.converged]: a [false] means the protocol was still retrying
    (e.g. a crashed node withheld its subtree) at [max_rounds]. *)
