(** A single Hamilton cycle (circular doubly-linked ring) over a dynamic
    node set, supporting the Law–Siu O(1) INSERT / DELETE operations.

    Degenerate sizes are handled so clouds can shrink gracefully: a ring
    of one node is a fixed point ([succ u = u], contributing no edges);
    a ring of two contributes the single edge between them. *)

type t

val of_permutation : int list -> t
(** Ring visiting the nodes in the given order. Nodes must be distinct. *)

val random : rng:Random.State.t -> int list -> t
(** Uniformly random ring over the given nodes. *)

val size : t -> int

val mem : t -> int -> bool

val succ : t -> int -> int
(** @raise Not_found if the node is not on the ring. *)

val pred : t -> int -> int

val insert_after : t -> anchor:int -> int -> unit
(** Splices a new node between [anchor] and [succ anchor].
    @raise Invalid_argument if the node is already on the ring or the
    anchor is absent. *)

val insert_random : rng:Random.State.t -> t -> int -> unit
(** Law–Siu INSERT: splice at a uniformly random position. Inserting into
    an empty ring makes the node a fixed point. *)

val delete : t -> int -> unit
(** Law–Siu DELETE: splice the node out, reconnecting its neighbours.
    No-op if absent. *)

val nodes : t -> int list
(** Sorted member list. *)

val edges : t -> Xheal_graph.Edge.t list
(** Simple edges of the ring (no self-pairs; the 2-ring yields one edge). *)

val check : t -> (unit, string) result
(** Verifies succ/pred inverse consistency and that the ring is a single
    cycle covering all members. *)
