(** Retry pacing for the [_robust] protocols. [Fixed] retries on a
    constant cadence ({!default} is [Fixed 3]); [Exponential] doubles
    the wait after every unacknowledged attempt (capped, with
    deterministic per-node jitter) so lossy runs spend fewer rounds
    re-flooding.
    Intervals are pure functions of [(policy, node, attempt)] — no RNG —
    so seeded replays are unaffected. *)

type t =
  | Fixed of int  (** Retry every [n] elapsed virtual-time units. *)
  | Exponential of { base : int; cap : int }
      (** Wait [min cap (base * 2^attempt)] plus deterministic jitter of
          at most half the raw interval, never exceeding [cap]. *)
  | Decorrelated of { base : int; cap : int }
      (** Seeded decorrelated jitter: each wait is drawn (by avalanche
          hash, no RNG) from [base .. min cap (3 * previous wait)] — the
          classic "decorrelated jitter" chain, which spreads retries
          across the whole [base, cap] band instead of clustering them
          at powers of two. *)

val default : t
(** [Fixed 3]: the pacing of every [_robust] protocol called without
    [backoff]. *)

val fixed : int -> t
(** @raise Invalid_argument when the interval is [< 1]. *)

val exponential : base:int -> cap:int -> unit -> t
(** @raise Invalid_argument when [base < 1] or [cap < base]. *)

val decorrelated : base:int -> cap:int -> unit -> t
(** @raise Invalid_argument when [base < 1] or [cap < base]. *)

val interval : t -> node:int -> attempt:int -> int
(** Virtual-time wait before retry number [attempt] (0-based) by
    [node]. Always in [1, max_interval]. *)

val max_interval : t -> int
(** Upper bound on {!interval} — quiescence grace windows must cover it
    or pending retries get cut off. *)
