(** Adversary strategies. Per the model, the adversary sees the full
    current topology (the healed graph) but not the healer's coin flips.
    A strategy is a stateful generator of events; [None] means the
    adversary stops (e.g. the graph is too small to attack further).

    All strategies refuse to delete below 4 nodes so measurements are
    taken on non-degenerate graphs; {!churn} and {!adaptive_churn}
    insert instead. *)

type t = { name : string; next : Xheal_graph.Graph.t -> Event.t option }

val random_delete : rng:Random.State.t -> unit -> t
(** Deletes a uniformly random node each step. *)

val hub_delete : rng:Random.State.t -> unit -> t
(** Always deletes a maximum-degree node (ties broken randomly) — the
    attack that collapses tree-repaired networks. *)

val min_degree_delete : rng:Random.State.t -> unit -> t

val cutpoint_delete : rng:Random.State.t -> unit -> t
(** Prefers articulation points (the most connectivity-damaging legal
    move); falls back to hubs when the graph is biconnected. *)

val bottleneck_delete : rng:Random.State.t -> unit -> t
(** The {e spectral} adversary: computes the healed graph's Fiedler
    sweep cut (its sparsest spectral bottleneck) each step and deletes
    the boundary node with the most edges crossing the cut — the move
    that damages expansion fastest while remaining a legal single
    deletion. This is the strongest topology-aware attack in the suite;
    it still cannot see the healer's coins, per the model. *)

val churn :
  ?insert_prob:float ->
  ?attach:int ->
  rng:Random.State.t ->
  first_id:int ->
  unit ->
  t
(** P2P-style churn: with probability [insert_prob] (default 0.5) inserts
    a fresh node attached to [attach] (default 3) random existing nodes,
    otherwise deletes a random node. Fresh identifiers count up from
    [first_id]. *)

val adaptive_churn :
  ?insert_prob:float ->
  ?attach:int ->
  rng:Random.State.t ->
  first_id:int ->
  unit ->
  t
(** Like {!churn} but insertions preferentially attach to high-degree
    nodes (rich-get-richer) and deletions target hubs — a worst-case mix
    for degree-sensitive healers. *)

val scripted : Event.t list -> t
(** Replays a fixed event list. *)
