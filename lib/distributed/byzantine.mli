(** In-transit payload rewriting for nodes scheduled as Byzantine in a
    {!Fault_plan}. Applied by {!Netsim} between send and delivery, ahead
    of the probabilistic fault gauntlet, in both the event engine and the
    reference round loop.

    Determinism: rewrites are a pure avalanche-hash function of
    [(plan.seed, src, dst, k)] where [k] is the per-(src,dst) send index
    — no RNG state is consumed, so adding [byzantine] entries to a plan
    perturbs nothing else and same-seed runs replay byte-identically.

    Attack surface: only [Challenge]/[Victory]/[Subtree]/[Edges] are
    rewritten; acks, handshakes, BFS waves and the defense messages
    ([Confirm]/[Vote]) pass clean. Rewrites are additive-only (phantom
    entries appended, never real entries removed): omission is modelled
    by [Silent_on_protocol], which surfaces as loud non-convergence. *)

val tamper : Fault_plan.t -> src:int -> dst:int -> k:int -> Msg.t -> Msg.t option
(** [tamper plan ~src ~dst ~k msg] is [None] when a [Silent_on_protocol]
    sender swallows a protocol payload, [Some msg'] with a rewritten
    payload for [Equivocate]/[Corrupt_payload] senders, and [Some msg]
    unchanged for honest senders or untargeted kinds. *)

val targeted : Msg.t -> bool
(** Whether a message kind is attacked at all ([Challenge], [Victory],
    [Subtree], [Edges]). *)

val is_phantom : int -> bool
(** Whether an id can only come from a rewrite: phantom ids injected by
    rewrites are [>= 1_000_000], far above any real node id. *)
