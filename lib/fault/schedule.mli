(** Delivery schedules for the event-driven {!Netsim} engine.

    A schedule decides how long each message spends in flight, in virtual
    time units:

    - {!sync} — every message takes exactly one time unit, FIFO. The
      engine then steps every node at every integer time, which is the
      paper's synchronous LOCAL round model; [Netsim.run] uses this by
      default and is bit-compatible with the round loop
      [Netsim.run_reference] keeps as its conformance oracle.
    - {!async} — an adversarially-seeded delay in [1 .. fairness] per
      message, bounded only by the fairness parameter [F]: every
      in-flight message is delivered within [F] time units of its send,
      but the adversary (a seeded hash of the message identity) chooses
      where in that window, reordering traffic arbitrarily. There is no
      global round clock; the engine jumps between event times.

    Delays are a pure function of [(seed, src, dst, k)] where [k] counts
    messages per directed link, so a given [(seed, fairness)] pair
    replays bit-for-bit. The draw is coupled across fairness values: the
    underlying uniform variate ignores [fairness], so raising [F] can
    only lengthen (never shorten) any individual delay — the fairness
    monotonicity the property tests pin down. [fairness = 1] degenerates
    to the synchronous schedule exactly. *)

type t = Sync | Async of { seed : int; fairness : int }

val sync : t

val async : seed:int -> fairness:int -> t
(** @raise Invalid_argument if [fairness < 1]. *)

val is_sync : t -> bool

val fairness : t -> int
(** The delivery bound [F]; [1] for {!sync}. *)

val reseed : t -> int -> t
(** [reseed t k] derives an independent-looking schedule for phase [k]
    of a composite run (mirrors {!Fault_plan.reseed}); identity on
    {!sync}. *)

val delay : t -> src:int -> dst:int -> k:int -> int
(** Delay in virtual-time units of the [k]-th message sent on the
    directed link [src → dst]; always in [1 .. fairness t]. *)
