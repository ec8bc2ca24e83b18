(** Hash table keyed by [int]: monomorphic equality and the identity
    hash, so a lookup never reaches the polymorphic hash or compare.
    The store's id -> slot table, [Netsim]'s link counters, the cloud
    registry and the member samplers' position tables all use it.

    Like [Hashtbl], [iter] and [fold] visit in bucket order, an
    accident of the insertion history; xlint's D2 holds every escaping
    use to a sort, a commutative reduction or an
    [(* xlint: order-independent *)] annotation. *)

type 'a t

val create : int -> 'a t
(** [create n]: empty, sized for about [n] bindings. *)

val copy : 'a t -> 'a t

val length : 'a t -> int

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** @raise Not_found when unbound. *)

val find_opt : 'a t -> int -> 'a option

val add : 'a t -> int -> 'a -> unit
(** For an unbound key only: on a bound one it hides the old binding
    instead of replacing it. *)

val replace : 'a t -> int -> 'a -> unit

val remove : 'a t -> int -> unit

val iter : (int -> 'a -> unit) -> 'a t -> unit

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
