(** Unordered node pairs used as canonical edge keys.

    An edge between nodes [u] and [v] is represented by the ordered pair
    [(min u v, max u v)] so that it can be used as a hash or set key
    independently of orientation. Self-loops are rejected. *)

type t = private int * int
(** Canonical edge key: the first component is strictly smaller than the
    second. *)

val make : int -> int -> t
(** [make u v] is the canonical key for the edge [{u, v}].
    @raise Invalid_argument if [u = v] (self-loop). *)

val endpoints : t -> int * int
(** [endpoints e] returns [(u, v)] with [u < v]. *)

val src : t -> int
(** Smaller endpoint. *)

val dst : t -> int
(** Larger endpoint. *)

val mem : t -> int -> bool
(** [mem e u] is true iff [u] is an endpoint of [e]. *)

val compare : t -> t -> int
(** Total order on canonical keys (lexicographic). *)

val equal : t -> t -> bool

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Table : Hashtbl.S with type key = t
(** Hash table keyed by canonical edges. *)
