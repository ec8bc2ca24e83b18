(** Dynamic set of integers with O(1) insert, delete and uniform random
    sampling (array with swap-removal). Used to pick random insertion
    points in Hamilton cycles and random cloud leaders. A sampler of at
    most 16 elements finds an element by scanning the array; a larger
    one keeps an element -> position table, so a clique cloud carries
    none. *)

type t

val create : ?capacity:int -> unit -> t

val of_list : int list -> t
(** Duplicates are ignored. *)

val size : t -> int

val mem : t -> int -> bool

val add : t -> int -> bool
(** [true] iff the element was not already present. *)

val remove : t -> int -> bool
(** [true] iff the element was present. *)

val sample : rng:Random.State.t -> t -> int option
(** Uniform over current elements; [None] when empty. *)

val sample_other : rng:Random.State.t -> t -> int -> int option
(** Uniform over current elements excluding the given one. *)

val to_list : t -> int list
(** Sorted. *)

val iter : (int -> unit) -> t -> unit
