(** The Xheal self-healing engine — Algorithm 3.1 of the paper with the
    distributed cost accounting of Section 5.

    On every adversarial deletion the engine classifies the lost edges by
    ownership and repairs:

    - {b Case 1} (all black): builds one new {e primary} expander cloud
      over the deleted node's neighbours (clique when small).
    - {b Case 2.1} (only primary-cloud edges lost): splices the node out
      of each affected primary cloud, then stitches the affected clouds
      (plus singleton clouds for black neighbours) together with a new
      {e secondary} cloud over one distinct free node per cloud —
      sharing free nodes across clouds when a cloud has none, and
      {e combining} all affected clouds into one primary cloud when the
      free-node supply is exhausted (the amortized expensive path).
    - {b Case 2.2} (the node was a bridge of secondary cloud [F]):
      repairs the primaries, replaces the bridge in [F] with a fresh free
      node of the same primary (sharing / combining as above), and runs
      the Case-2.1 stitch over the affected clouds not already linked by
      [F] together with the bridge's own primary (see DESIGN.md §2 for
      why the anchor cloud is included: it is what keeps the two repaired
      groups connected).

    Insertions are free: the new edges are colored black.

    Edge ownership is derived from two records (DESIGN.md §2 item 1): the
    black subgraph (seed and inserted edges, minus deleted nodes) and
    each cloud's {!Cloud.current} edge set. The live network is exactly
    their union, so an edge leaves it only when it is not black and no
    cloud holds it.

    The engine enforces and can audit the paper's structural invariants:
    bridge-duty uniqueness, secondary-membership-equals-bridge-set,
    network = black edges plus cloud edges, and H-graph ring
    integrity. *)

type t

type trigger = Oracle | Detector of Xheal_fault.Detect.t
(** How a deletion becomes known to the network. [Oracle] is the
    paper's model: the adversary's removal is announced to the
    neighbourhood by fiat, and repair starts immediately. [Detector cfg]
    replaces the oracle with the end-to-end detection loop: the pricing
    backend runs the heartbeat {!Xheal_distributed.Failure_detector}
    protocol (configured by [cfg]) over the NoN clique of the victim and
    its neighbours under the engine's fault plan and schedule, bills it
    as a ["detect"] phase, and the repair fires only if the monitors
    confirm the death. An unconfirmed death aborts the deletion cleanly:
    the victim stays in the graph, no clouds are built, and only the
    detection attempt is charged. Detector triggers require a pricing
    backend even under a lossless plan (detection is a protocol, not a
    closed form). *)

val create :
  ?cfg:Config.t ->
  ?obs:Xheal_obs.Scope.t ->
  ?monitor:Xheal_obs.Monitor.t ->
  ?plan:Xheal_fault.Fault_plan.t ->
  ?schedule:Xheal_fault.Schedule.t ->
  ?backend:Cost.backend ->
  rng:Random.State.t ->
  Xheal_graph.Graph.t ->
  t
(** Engine over a copy of the initial network; all initial edges black.
    The network and its black subgraph are each a {!Xheal_graph.Graph.copy}
    of the seed graph, so they carry its slot layout.

    [obs] (default: none) attaches an observability scope. Every
    repair, of one victim or a batch, then opens one repair-level span
    ([xheal:delete]) with [xheal:phase1] (splice-out), [xheal:phase2]
    (stitch), and [xheal:combine] spans nested inside it, timestamped on
    the cost-model clock (the round charges accumulated so far, based at
    [totals.total_rounds] so successive repairs lay out sequentially).
    The scope's registry accumulates per-repair histograms
    ([xheal.repair.messages], [xheal.repair.edge_churn]), a combine
    counter ([xheal.combines]), and per-phase-label totals
    ([xheal.phase.<label>.{messages,rounds}]). Observation never touches
    [rng], so an observed run is replay-identical to a bare one. The
    scope is claimed for the engine's cost-model clock
    ([Tracer.claim_clock]): sharing it with Netsim-driven code (a
    pricing backend) trips [Tracer.check] — keep one scope per clock.

    [monitor] (default: none) attaches an online invariant observatory
    ({!Xheal_obs.Monitor}). After each repair is fully accounted the
    engine notifies it with the victims, the touched nodes (black
    neighbours plus affected-cloud members, captured pre-removal), the
    repair sequence number and the engine-rounds timestamp; insertions
    feed its insert-only reference graph. The seam is strictly passive:
    the monitor owns a private RNG and only reads the healed graph, so
    [?monitor:None] runs are bit-identical to builds without the seam
    and monitored runs heal identically (QCheck-pinned, like [obs]).

    [backend] (default: none) decides how repairs are {e priced}, and
    nothing else does. Without one every phase is charged its Theorem-5
    closed form. With one (typically [Xheal_distributed.Pricing.backend])
    the protocol-backed phases — elect/build for primary rebuilds and
    secondary stitches, and combine — are priced by actually driving the
    distributed protocols under [plan] / [schedule] (defaults:
    {!Xheal_fault.Fault_plan.none} / {!Xheal_fault.Schedule.sync}, which
    run the synchronous fast-path protocols), so retries, duplicates,
    delays, crash timeouts and Byzantine defense escalations land in the
    cost report ([report.measured], [totals.unconverged],
    [totals.escalations]). Splice-local phases (join, fix-cloud,
    find-free, leader-handoff) stay closed-form either way: they are
    single-splice neighbourhood operations of constant cost. The backend
    draws randomness only from its own RNG, so the healed graph and the
    engine's own RNG stream are identical with or without it, under any
    plan (QCheck-pinned).

    @raise Invalid_argument if a faulty plan/schedule is given without a
    [backend]. *)

val kappa : t -> int

val graph : t -> Xheal_graph.Graph.t
(** The live healed network [G_t]. Callers must not mutate it. *)

val insert : t -> node:int -> neighbors:int list -> unit
(** Adversarial insertion. Unknown neighbour ids are ignored; inserting
    an existing node or a negative id raises [Invalid_argument]. *)

val delete : ?trigger:trigger -> t -> int -> unit
(** Adversarial deletion plus repair, priced under the engine's plan
    and schedule (see {!create}): the repair of {!delete_many} over one
    victim, which is the case analysis above. [trigger] (default
    {!Oracle}) selects how the network learns of the death — see
    {!trigger}; under [Detector _] the repair is preceded by a billed
    detection phase and aborts (leaving the victim in place) if the
    death goes unconfirmed. The report's case is [Case1], [Case21] or
    [Case22].
    @raise Invalid_argument if the node is absent, or if a [Detector]
    trigger is used without a backend. *)

val delete_many : ?trigger:trigger -> t -> int list -> unit
(** The paper's multi-deletion extension (Section 1): the adversary
    removes a whole set of nodes in one timestep, and one repair runs
    the single-deletion steps over all of them. Every cloud that lost
    a victim is spliced once, in ascending id order; each victim's
    secondary is re-anchored as in Case 2.2, in victim order; then each
    {e damage region} is stitched by the single-deletion rules over its
    merged inputs. Two victims share a region when they are
    black-adjacent or share a black neighbour, a cloud or an anchor. A
    region none of whose victims was in a cloud is repaired as Case 1;
    any other gets a secondary over its anchors, then every other
    primary it lost a member of that no live re-anchored secondary still
    links, with a singleton primary for each live black neighbour no
    unit holds. Invariants, connectivity of each surviving component,
    and the Theorem-2.1 degree bound are preserved (see the test suite).
    Duplicate and unknown ids are ignored, and one victim is exactly
    {!delete}. A batch of [k] victims reports as [Batch k], and the
    totals count each victim it repairs as a deletion. Under a
    [Detector] trigger every victim's crash is
    confirmed independently by its own neighbourhood before the repair;
    undetected victims stay in the graph untouched, and a batch in which
    nothing is confirmed only bills its detection attempts. *)

val totals : t -> Cost.totals

val last_report : t -> Cost.report option

val black_degree : t -> int -> int
(** Degree counting only black-owned edges. *)

val clouds : t -> Cloud.t list

val num_clouds : t -> int

val is_free : t -> int -> bool

(** {1 Introspection}

    Read-only views of the coloring the algorithm maintains, for
    visualization and debugging. *)

val is_black_edge : t -> int -> int -> bool
(** True iff the black subgraph holds the edge: a seed or inserted edge
    whose ends are both live. *)

val edge_cloud_owners : t -> int -> int -> int list
(** Ids, ascending, of the clouds whose {!Cloud.current} holds the edge
    ([[]] if none or absent). Read from the clouds of one endpoint. *)

val find_cloud : t -> int -> Cloud.t option
(** Cloud by id (its edge color). *)

val clouds_of_node : t -> int -> Cloud.t list
(** Clouds the node currently belongs to, sorted by id. *)

val check : t -> (unit, string) result
(** Full invariant audit: registry invariants, per-cloud structure, that
    every cloud's desired edge set is its current one and is live, and
    that the network is exactly the black subgraph plus every cloud's
    current edges (same node set, nothing else). *)

val factory : ?cfg:Config.t -> unit -> Healer.factory
(** Packages the engine behind the {!Healer} interface for the drivers.
    The label reflects κ and ablation flags. Factory-made engines price
    with the closed forms; measured pricing goes through {!create}. *)
