(** Expander clouds — the paper's repair unit. A cloud is a set of nodes
    carrying either a clique (when the set is small, [size ≤ κ+1]) or a
    κ-regular Law–Siu H-graph. Every cloud has a unique id, which doubles
    as its edge color, and a randomly chosen leader/vice-leader pair as in
    Section 5's invariants.

    A cloud only describes its *desired* edge set; the engine reconciles
    it against the live network (see [Xheal.sync]). [current] is the
    edge set most recently pushed to the network, and the engine's only
    record of the edges this cloud owns. *)

type kind = Primary | Secondary

val kind_to_string : kind -> string

type t

val make :
  rng:Random.State.t ->
  id:int ->
  kind:kind ->
  d:int ->
  half_rebuild:bool ->
  int list ->
  t
(** Fresh cloud over the given distinct nodes. [d] Hamilton cycles
    ([κ = 2d]); [half_rebuild] enables the paper's re-randomization after
    a cloud halves. *)

val id : t -> int

val kind : t -> kind

val size : t -> int

val mem : t -> int -> bool

val members : t -> int list
(** Sorted. *)

val iter_members : t -> (int -> unit) -> unit

val structure_kind : t -> [ `Clique | `Expander ]

val leader : t -> int option

val vice : t -> int option

val desired_edges : t -> Xheal_graph.Edge.Set.t

val current : t -> Xheal_graph.Edge.Set.t

val set_current : t -> Xheal_graph.Edge.Set.t -> unit

val purge_node_from_current : t -> int -> unit
(** Forgets cached edges incident to a node the adversary just removed
    (those edges are already gone from the network). *)

val add_member : rng:Random.State.t -> t -> int -> unit
(** Splices the node into the H-graph (or grows the clique, upgrading to
    an H-graph past the size threshold).
    @raise Invalid_argument if already a member. *)

val remove_member : rng:Random.State.t -> t -> int -> bool
(** Removes a member, downgrading to a clique at the threshold and
    re-randomizing after half-loss when enabled. Returns [true] iff the
    removed node was the leader (the caller charges the leader-handoff
    message cost). No-op returning [false] if not a member. *)

val check : t -> (unit, string) result
(** Structure/member consistency, leadership validity, H-graph rings. *)
