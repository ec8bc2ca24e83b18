(** The model loop of Figure 1: applies an adversary's events to a healer
    while maintaining the insert-only shadow graph [G'_t] that every
    guarantee of Theorem 2 is stated against. [G'_t] holds the original
    nodes, all inserted nodes and all black (adversary-chosen) edges, and
    is never affected by deletions or healing. *)

type t

val init : Xheal_core.Healer.factory -> rng:Random.State.t -> Xheal_graph.Graph.t -> t
(** Fresh run: the healer starts on (a copy of) the initial graph, which
    also seeds [G']. *)

val healer : t -> Xheal_core.Healer.instance

val graph : t -> Xheal_graph.Graph.t
(** Current healed graph [G_t]. *)

val gprime : t -> Xheal_graph.Graph.t
(** The shadow graph [G'_t] (do not mutate). *)

val steps : t -> int
(** Events applied so far. *)

val deletions : t -> int

val apply : t -> Event.t -> unit
(** One timestep. Insertions are mirrored into [G'] (attachment edges to
    already-deleted endpoints are recorded in [G'] only — the adversary
    can only name live nodes, so such edges are dropped for the healer;
    in practice strategies only name live nodes). *)

val run :
  ?on_step:(t -> Event.t -> unit) ->
  t ->
  Strategy.t ->
  steps:int ->
  int
(** Drives the strategy for at most [steps] events (stopping early if the
    strategy yields [None]); returns the number applied. [on_step] fires
    after each event — use it to sample metrics. *)

