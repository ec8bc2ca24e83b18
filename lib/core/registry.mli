(** Global cloud bookkeeping: which clouds exist, which clouds each node
    belongs to, which nodes carry *bridge duty* (membership in a
    secondary cloud on behalf of a primary cloud), and the
    primary↔secondary association maps.

    Invariants maintained (checked by {!check}):
    - every member of every cloud is a live node of the registry;
    - a node has bridge duty for at most one secondary cloud (paper:
      "any (bridge) node of a primary cloud can belong to at most one
      secondary cloud");
    - a node is *free* iff it has no bridge duty;
    - each secondary cloud's members are exactly its bridge nodes, each
      associated with one live primary cloud that contains it, so a
      primary's links are found among its own members. *)

type t

val create : unit -> t

val fresh_id : t -> int
(** Allocates the next cloud id (also used as the edge color). *)

val add_cloud : t -> Cloud.t -> unit

val remove_cloud : t -> int -> unit
(** Unregisters the cloud and its membership entries. Association maps
    referring to it must be cleared by the caller first ({!unlink_all}). *)

val find : t -> int -> Cloud.t option

val find_exn : t -> int -> Cloud.t

val clouds : t -> Cloud.t list
(** All clouds, sorted by id. *)

val num_clouds : t -> int

val clouds_of : t -> int -> Cloud.t list
(** Clouds the node belongs to, sorted by id. *)

val note_membership : t -> node:int -> cloud:int -> unit

val is_free : t -> int -> bool
(** No bridge duty. *)

val free_members : t -> Cloud.t -> int list
(** Free nodes among a cloud's members, sorted. *)

val duty_of : t -> int -> int option
(** Secondary cloud id the node has bridge duty for, if any. *)

val link : t -> secondary:int -> bridge:int -> primary:int -> unit
(** Records that [bridge] sits in [secondary] on behalf of [primary] and
    takes bridge duty.
    @raise Invalid_argument if the node already has bridge duty. *)

val unlink_bridge : t -> secondary:int -> bridge:int -> unit
(** Clears one bridge's duty and both association directions. *)

val unlink_all : t -> secondary:int -> unit
(** Clears every association of a secondary cloud (used when dissolving). *)

val bridges_of_secondary : t -> int -> (int * int) list
(** [(bridge, primary)] pairs of a secondary cloud, sorted by bridge. *)

val secondaries_of_primary : t -> int -> (int * int) list
(** [(secondary, bridge)] pairs attached to a primary cloud, sorted.
    A primary may legitimately own several bridges into one secondary
    after a combine, so pairs are not deduplicated by secondary. Reads
    only the primary's own members, each bridge being a member of the
    primary it represents; [[]] for an unregistered id. *)

val primary_of_bridge : t -> secondary:int -> bridge:int -> int option

val retarget_primary : t -> old_primary:int -> new_primary:int -> unit
(** Redirects every secondary association of [old_primary] to
    [new_primary] (used by combine; see DESIGN.md §2.2). Walks
    [old_primary]'s members, so it must still be registered. *)

val remove_node : t -> int -> unit
(** Clears the node's memberships and bridge duty (including association
    entries). Cloud member sets themselves are updated by the engine. *)

val check : t -> (unit, string) result
