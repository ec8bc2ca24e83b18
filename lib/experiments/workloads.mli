(** Shared initial networks and attack mixes used across experiments and
    examples. *)

val initial :
  rng:Random.State.t ->
  [ `Regular of int * int  (** n, degree *)
  | `Er of int * float
  | `Star of int
  | `Grid of int * int
  | `Path of int
  | `Cycle of int
  | `Hgraph of int * int  (** n, d *)
  | `PrefAttach of int * int ] ->
  Xheal_graph.Graph.t

val mixed_attack : rng:Random.State.t -> Xheal_adversary.Strategy.t
(** 50% random deletions, 30% hub deletions, 20% cut-point deletions —
    the omniscient adversary's damage mix used by E1/E3/E4. *)

val delete_fraction :
  rng:Random.State.t ->
  healer:Xheal_core.Healer.factory ->
  initial:Xheal_graph.Graph.t ->
  strategy:Xheal_adversary.Strategy.t ->
  fraction:float ->
  Xheal_adversary.Driver.t
(** Applies deletions until the node count has dropped by the given
    fraction (insertions by the strategy do not count against it). *)
