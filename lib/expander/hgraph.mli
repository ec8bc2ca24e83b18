(** Law–Siu random H-graphs: the union of [d] independently-random
    Hamilton cycles over a common node set (a 2d-regular multigraph,
    exposed here as its simple-graph edge set). Theorem 3 of the paper:
    the INSERT/DELETE operations below preserve the "uniformly random
    H-graph" distribution, so by Theorem 4 the structure stays an
    expander with high probability throughout any update sequence. *)

type t

val create : rng:Random.State.t -> d:int -> int list -> t
(** Random H-graph over the given (distinct) nodes. [d ≥ 1] cycles;
    [κ = 2d] is the paper's cloud degree parameter. The cycles are the
    only record of the member set.
    @raise Invalid_argument if [d < 1] or a node repeats. *)

val d : t -> int

val size : t -> int

val mem : t -> int -> bool

val members : t -> int list
(** Sorted. *)

val insert : rng:Random.State.t -> t -> int -> unit
(** Law–Siu INSERT: splice the node into each cycle at an independent
    uniform position.
    @raise Invalid_argument if already a member. *)

val delete : t -> int -> unit
(** Law–Siu DELETE: splice the node out of every cycle. No-op if absent. *)

val rebuild : rng:Random.State.t -> t -> unit
(** Replace all cycles by fresh uniform ones over the current members
    (the paper's amortized re-randomization after heavy loss). *)

val edges : t -> Xheal_graph.Edge.t list
(** Deduplicated simple edges, sorted. *)

val to_graph : t -> Xheal_graph.Graph.t
(** Simple graph with the members as nodes and {!edges} as edges. *)

val max_multiplicity : t -> int
(** Largest number of cycles sharing one simple edge (1 = already simple). *)

val check : t -> (unit, string) result
(** Every cycle is a consistent single ring over exactly the member set. *)
