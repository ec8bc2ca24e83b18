(** Message-passing simulator, event-driven under the hood: a calendar
    ring of delivery events ({!Event_queue}) drives the run, and a
    {!Schedule} decides how long each message stays in flight.

    Under {!Schedule.sync} (the default) every message takes exactly one
    time unit and every node is stepped at every integer time — the
    paper's synchronous LOCAL round model (Figure 1), bit-identical to
    the historical round loop (retained as {!run_reference} and pinned
    by the conformance property in the test suite). Under
    {!Schedule.async} there is no global round clock: per-message delays
    are adversarially seeded within the fairness bound [F], the clock
    jumps between event times, and [rounds] reports the virtual
    time-to-quiescence instead of a round count.

    Round 0 / time 0 steps every node with an empty inbox (the
    "neighbours are informed of the deletion" wake-up); execution stops
    at quiescence — a step at which nothing is in flight and (for
    [grace] further steps) nothing new is sent. The simulator reports
    time and total messages, the paper's two efficiency metrics, plus
    fault counters and an explicit [converged] flag so a run that
    exhausts [max_rounds] can never be mistaken for a finished one.

    Faults ({!Fault_plan}) are injected between send and delivery:
    drops, duplications, delays, link partitions, scheduled node
    crashes, and Byzantine payload rewriting ({!Byzantine}: scheduled
    liars hand the network per-recipient forgeries, applied ahead of the
    probabilistic gauntlet without consuming RNG state). With
    {!Fault_plan.none} (the default) the delivery schedule, time, and
    message/word totals are exactly those of the fault-free
    simulator. *)

type t

type handler = now:int -> inbox:(int * Msg.t) list -> (int * Msg.t) list
(** [now] is the virtual time of the step (equal to the round number
    under the synchronous schedule); [inbox] pairs each message with its
    sender; the result lists [(destination, message)] pairs handed to
    the network at [now]. Handlers close over their own node state.
    Handlers that act on [now = k] equality for [k > 0] (the classic
    tournament election does) assume the synchronous schedule, which
    steps every integer time; schedule-agnostic handlers must use
    elapsed-time comparisons ([now >= deadline]) instead, as the
    [_robust] protocol variants do. *)

val create : ?obs:Xheal_obs.Scope.t -> unit -> t
(** [obs] (default: none) attaches an observability scope. The
    simulator then records per-delivery/drop/delay/tamper instants and
    queue-depth samples (one per integer virtual time, back-filled
    across event-time jumps under asynchronous schedules) into the
    scope's tracer (on per-node tracks, in
    virtual time — traces from seeded runs replay byte-identically) in
    addition to the per-message-type counters, which always exist: with
    no scope they live in a private registry. A net holds only its
    nodes, that registry and the scope; every run keeps its own
    traffic tally, so running one net twice reports the same stats
    twice. *)

val add_node : t -> int -> handler -> unit
(** @raise Invalid_argument on duplicate ids. *)

type type_counts = {
  delivered : int;
  dropped : int;
  duplicated : int;
  tampered : int;
}
(** Per-message-type slice of a run's traffic. [tampered] counts sends
    rewritten or swallowed in transit by a Byzantine sender
    ({!Fault_plan.behaviour}); a tampered-then-delivered message counts
    under both. *)

type stats = {
  rounds : int;
      (** Virtual time at quiescence. Under the synchronous schedule
          this is the LOCAL round count; under an asynchronous schedule
          it is the time-to-quiescence E13 sweeps against the fairness
          bound. *)
  messages : int;  (** Protocol sends; faulty copies are not re-counted. *)
  words : int;  (** Total CONGEST payload ({!Msg.size_words}) sent. *)
  converged : bool;
      (** True iff the run quiesced on its own; false means [max_rounds]
          was exhausted with work still pending. *)
  dropped : int;
      (** Messages lost: random drops, partition cuts, and messages
          addressed to unregistered or crashed nodes. *)
  duplicated : int;  (** Extra copies injected by the duplication fault. *)
  delayed : int;  (** Deliveries pushed at least one time unit late by faults. *)
  tampered : int;
      (** Sends rewritten or swallowed in transit by Byzantine senders.
          The rewrite happens between send and the fault gauntlet, is a
          pure function of (plan seed, src, dst, per-link send index) —
          no RNG draw — and never touches honest traffic, so a plan with
          [byzantine = []] is byte-identical to the pre-Byzantine
          simulator. *)
  per_type : (string * type_counts) list;
      (** Traffic broken down by {!Msg.kind}, sorted by kind name. A
          kind has a row when any of its delivered, dropped,
          duplicated, delayed or tampered counts is nonzero, so a kind
          that was only ever delayed keeps an all-zero row. The run
          counts its traffic in a tally indexed by (action, {!Msg.tag});
          at the end of the run, a [max_rounds] cut included, it builds
          this list from the tally and adds each nonzero count to the
          registry counter [netsim.<action>.<kind>] ([netsim.delivered.beat],
          ...). So these totals and an exported metrics dump agree by
          construction, and a registry shared by several runs
          accumulates while each [per_type] stays its own run's. Both
          engines ({!run} and {!run_reference}) produce identical
          breakdowns on identical workloads — the conformance property
          covers this field too. *)
}
(** Every count covers one run only. *)

val run :
  ?max_rounds:int ->
  ?plan:Fault_plan.t ->
  ?grace:int ->
  ?schedule:Schedule.t ->
  ?trace:(now:int -> src:int -> dst:int -> Msg.t -> unit) ->
  t ->
  stats
(** Executes until quiescence or virtual time [max_rounds]
    (default 10_000).

    [trace] (default: none) observes every delivered message, in
    delivery order, just before it enters the destination inbox —
    the full message transcript of the run. Two runs from the same
    seeds must produce identical transcripts; the e2e determinism
    regression in the test suite asserts exactly that.

    [schedule] (default {!Schedule.sync}) picks the delivery model; the
    default instantiates the event engine with all delays = 1, FIFO —
    the synchronous round loop, bit-identical to {!run_reference}.

    [grace] (default 0) keeps the clock ticking for that many
    consecutive idle steps before declaring quiescence, stepping every
    node with an empty inbox each time. Retry-based protocols need
    this: a node can only resend a lost message if a step after the
    loss still happens. A step is idle only if nothing is in flight
    {e and} no send was swallowed by the fault gauntlet {e and} no
    delivery was dropped on a crashed destination — a node whose retry
    was just lost (either way) is still actively working, so a lossy
    run cannot read as converged while senders are trying. With
    [grace = 0], no fault plan, and the synchronous schedule the run
    stops the first time nothing is in flight, exactly like the
    original simulator.

    @raise Invalid_argument if [max_rounds < 0] or [grace < 0]. *)

val run_reference :
  ?max_rounds:int ->
  ?plan:Fault_plan.t ->
  ?grace:int ->
  ?trace:(now:int -> src:int -> dst:int -> Msg.t -> unit) ->
  t ->
  stats
(** The pre-event-queue synchronous round loop, kept as the golden
    oracle: on any workload, [run] with the default schedule must
    produce identical stats (the conformance property in the test suite
    gates the event engine on exactly this). Semantically it matches
    [run ~schedule:Schedule.sync]; only the implementation differs
    (explicit in-flight list walked round by round).
    @raise Invalid_argument if [max_rounds < 0] or [grace < 0]. *)
