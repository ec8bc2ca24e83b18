(** Dense float vectors ([float array]) with the handful of BLAS-1
    operations the eigensolvers need. All binary operations require equal
    lengths and raise [Invalid_argument] otherwise. *)

type t = float array

val create : int -> t
(** Zero vector. *)

val init : int -> (int -> float) -> t

val copy : t -> t

val dim : t -> int

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val scale : float -> t -> t
(** Fresh vector [alpha * x]. *)

val scale_inplace : float -> t -> unit

val axpy : alpha:float -> t -> t -> unit
(** [axpy ~alpha x y] updates [y <- y + alpha * x]. *)

val normalize : t -> t
(** Fresh unit vector; returns the zero vector unchanged if its norm is
    below [1e-300]. *)

val project_out : t -> from:t -> unit
(** [project_out u ~from:v] updates [v <- v - ((v·u)/(u·u)) u]; no-op when
    [u] is (near) zero. *)

val random_unit : rng:Random.State.t -> int -> t
(** Unit vector with i.i.d. symmetric entries before normalization. *)

val ones : int -> t

val basis : int -> int -> t
(** [basis n i] is the [i]-th standard basis vector of dimension [n]. *)
