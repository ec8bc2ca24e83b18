(** Online invariant observatory: samples the paper's guarantees during
    engine runs and emits structured violation events.

    A monitor rides along an engine via the [?monitor] seam on
    {!Xheal_core.Xheal.create} and, every [cadence] repairs, checks the
    healed graph against the insert-only reference [G'_t] it shadows
    internally:

    - {b degree}: [deg(x) <= kappa*deg'(x) + 2*kappa] over the nodes the
      repair touched plus a few sampled survivors (T2.1);
    - {b expansion / conductance}: exact subset enumeration when both
      graphs fit under [exact_limit] (the known degree-<=2 corner from
      the exhaustive suite fires here), sampled BFS-order sweep
      estimates over the graph stores otherwise, compared against
      [min(alpha, h(G'))] with a [sweep_tol] band (T2.3);
    - {b connectivity}: the healed graph has no more components than
      [G'_t] has components still holding a live node — the deletions
      may empty a component of [G'_t], never split one. Those are
      counted only when the healed graph has split; with one healed
      component the check only asks whether any [G'_t] node is alive;
    - {b stretch}: sampled surviving pairs, healed distance vs [G']
      distance, against [stretch_factor * log2 n] (T2.2);
    - {b convergence}: protocol-priced phases that failed to quiesce —
      the engine reports every phase its pricing backend runs through
      {!note_phase};
    - {b detection}: detector-triggered deletions reported through
      {!note_detection} whose detection latency exceeded (or missed)
      the {!Xheal_fault.Detect.latency_bound} promise.

    Each check reads the healed graph and [G'_t] in place through their
    slot views ({!Xheal_graph.Graph.view}); nothing is packed. The
    monitor keeps one slot-indexed BFS scratch per graph across checks
    (grown with the graph's slot space) and draws rank samples from the
    healed slots sorted by id ({!Xheal_graph.Graph.slots_by_id}). One
    {!Xheal_graph.Cuts.slot_bfs_sweep} from the sampled healed source
    gives both sweep estimates and, when it reaches every healed node,
    the connectivity verdict too. The reference is swept, for its
    expansion only, just when the healed estimate is below
    [alpha * (1 - sweep_tol)], the most its target can be: above that
    the verdict is a pass whatever the reference reads. Each stretch
    pair is one exact bidirectional search
    ({!Xheal_graph.Traversal.slot_pair_distance}) in [G'_t] and, when
    [G'_t] connects the pair, one in the healed graph.

    Passivity: the monitor owns a private RNG seeded from its config and
    only ever reads the healed graph — engine behaviour with
    [?monitor:None] is bit-identical to a build without the seam, and a
    monitored seeded run reproduces its event log byte-for-byte. All
    timestamps are engine-rounds virtual time; nothing here reads a
    clock. *)

type t

type guarantee =
  | Degree | Expansion | Conductance | Connectivity | Stretch | Convergence | Detection

val guarantee_to_string : guarantee -> string

type config = {
  kappa : int;  (** degree-bound parameter; match the engine's. *)
  cadence : int;  (** check every [cadence]-th repair (>= 1). *)
  exact_limit : int;
      (** max node count for exact enumeration (<= 22, the Cuts cap). *)
  alpha : float;  (** the paper's expansion floor (1 for Xheal). *)
  sweep_tol : float;
      (** fractional tolerance on sweep-estimate comparisons — both
          sides are upper bounds, so keep this generous. *)
  degree_samples : int;  (** extra sampled survivors per degree check. *)
  stretch_sources : int;
  stretch_targets : int;  (** sampled sources, and targets per source, per check. *)
  stretch_factor : float;  (** stretch bound is [factor * log2 n] (finite, > 0). *)
  seed : int;  (** seed of the monitor's private RNG. *)
}

val default_config : config

val create : ?config:config -> Xheal_graph.Graph.t -> t
(** A monitor over a run starting from the given graph (copied once into
    the insert-only reference; never aliased).
    @raise Invalid_argument, naming the field, if [kappa < 1],
    [cadence < 1], [exact_limit > 22], [degree_samples],
    [stretch_sources] or [stretch_targets] is negative, [alpha] is not
    [> 0], [sweep_tol] is outside [\[0, 1)], or [stretch_factor] is
    not finite and [> 0]. *)

(** {1 Run notifications} — called by the engine seam. *)

val on_insert : t -> node:int -> neighbors:int list -> unit
(** Grow the insert-only reference — [neighbors] should already be
    filtered to nodes alive in the healed graph, as the adversary model
    specifies. Repeat insertions of a known node are ignored. *)

val checks_next : t -> bool
(** Whether the next {!on_delete} runs the guarantee checks (every
    [cadence]-th repair). Only a checked repair reads [touched], so the
    engine captures that set only then. *)

val on_delete : t -> seq:int -> time:int -> victims:int list -> touched:int list ->
  healed:Xheal_graph.Graph.t -> unit
(** Count one repair and, on cadence, run the guarantee checks against
    [healed]. Deletions leave the reference untouched: a deleted node is
    one of [G'_t] missing from [healed]. [seq] is the engine's repair
    sequence number, [time] its engine-rounds virtual clock, [touched]
    the nodes the repair involved (black neighbours and affected-cloud
    members), read only when {!checks_next} held. [victims] is part of
    the engine seam but not read by the checks. *)

val note_phase :
  t -> seq:int -> time:int -> phase:string -> rounds:int -> messages:int -> converged:bool ->
  unit
(** Record one priced phase of repair [seq] (its cost-report label
    [phase], its simulator [rounds] and [messages]); a non-converged
    phase emits a {!Convergence} violation with [v_seq = seq].
    [time] is the engine-rounds clock, as for {!on_delete}. *)

val note_detection :
  t -> seq:int -> time:int -> victim:int -> latency:int -> bound:int -> unit
(** Record one detector-triggered deletion: always samples the latency,
    and emits a {!Detection} violation when [latency > bound] or the
    crash went undetected ([latency < 0]). *)

(** {1 Results} *)

type violation = {
  v_guarantee : guarantee;
  v_seq : int;
  v_time : int;
  v_node : int;  (** offending node, [-1] for whole-graph breaches. *)
  v_bound : float;
  v_measured : float;
  v_detail : string;
}

type sample = { s_guarantee : guarantee; s_seq : int; s_time : int; s_value : float }

type event = Sample of sample | Violation of violation

val events : t -> event list
(** In emission order. *)

val violations : t -> violation list

val repairs : t -> int

val checks : t -> int

val num_events : t -> int

val num_violations : t -> int

val to_jsonl : t -> string
(** The structured event log: one compact JSON object per line, in
    emission order, trailing newline. Byte-deterministic per seed. *)

val report_json : t -> Jsonw.t
(** ["xheal-monitor/1"] summary: repair/check/event/violation counts,
    the checks' work ([work]: [reference_enumerations] and
    [reference_sweeps], the exact [G'_t] enumerations and [G'_t] sweeps
    run, and [slots_visited], the slots their traversals labelled),
    per-guarantee violation counts, and first/last sampled value per
    guarantee (the guarantee deltas). *)
