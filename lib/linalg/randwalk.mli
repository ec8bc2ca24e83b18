(** Lazy-random-walk mixing on graphs. The lazy walk stays put with
    probability 1/2 and otherwise moves to a uniform neighbour; on a
    connected graph it converges to the stationary distribution
    [π(v) = deg(v) / 2m]. Mixing time is the expander-quality signal the
    paper's Cheeger discussion appeals to. *)

val tv_distance : Vec.t -> Vec.t -> float
(** Total-variation distance between two distributions. *)

val mixing_time :
  ?eps:float ->
  ?max_steps:int ->
  ?starts:int list ->
  Xheal_graph.Graph.t ->
  int option
(** Smallest [t] such that the walk distribution from every chosen start
    is within [eps] (default 1/4) of stationarity in total variation.
    [starts] defaults to all nodes for graphs up to 64 nodes, otherwise
    the 8 lowest-id nodes. Returns [None] if [max_steps] (default 10·n²)
    is insufficient (e.g. disconnected graph).
    @raise Invalid_argument when a start is not a node of the graph. *)
