(** Deterministic fault model for {!Netsim}. A plan is pure data: the
    simulator derives its own fault RNG from [seed], so a (plan, protocol)
    pair replays bit-for-bit. Faults are applied between send and
    delivery, in this order per message: link partition, random drop,
    duplication, delay. Node crashes silence a node from its crash round
    onward (it neither steps nor receives; messages to it count as
    dropped). *)

type partition = {
  from_round : int;
  until_round : int;  (** Exclusive: the cut heals at this round. *)
  cut : (int * int) list;  (** Undirected links severed while active. *)
}

type behaviour =
  | Equivocate
      (** Sends {e different} protocol payloads to different neighbours:
          each (recipient, send-index) pair sees its own deterministic
          rewrite of [Challenge]/[Victory]/[Subtree]/[Edges]. *)
  | Corrupt_payload
      (** Sends the {e same} lie to everyone: payloads rewritten as a pure
          function of the sender alone (out-of-domain ranks, phantom
          leaders/members). *)
  | Silent_on_protocol
      (** Drops its own outgoing protocol payloads
          ([Challenge]/[Victory]/[Subtree]/[Edges]) while still sending
          acks and handshakes — an omission attacker. *)

type t = {
  seed : int;  (** Seeds the simulator's private fault RNG. *)
  drop : float;  (** Per-message loss probability in [0,1]. *)
  duplicate : float;  (** Per-message duplication probability in [0,1]. *)
  delay : float;  (** Per-message delay probability in [0,1]. *)
  max_delay : int;  (** Delayed messages arrive 1..max_delay rounds late. *)
  crashes : (int * int) list;  (** [(node, round)]: crash-at-round schedule. *)
  partitions : partition list;
  byzantine : (int * behaviour) list;
      (** [(node, behaviour)]: nodes that lie in transit. The rewrite is a
          pure function of [(seed, src, dst, per-link send index)], so
          Byzantine runs replay bit-for-bit like crash-only ones. *)
}

val none : t
(** No faults at all. {!Netsim.run} with this plan (the default) behaves
    exactly like the fault-free simulator. *)

val make :
  ?seed:int ->
  ?drop:float ->
  ?duplicate:float ->
  ?delay:float ->
  ?max_delay:int ->
  ?crashes:(int * int) list ->
  ?partitions:partition list ->
  ?byzantine:(int * behaviour) list ->
  unit ->
  t
(** Omitted knobs default to "off".
    @raise Invalid_argument on probabilities outside [0,1] (NaN
    included), [max_delay < 1], a negative crash round, a partition
    with [until_round <= from_round], or a node listed twice in
    [byzantine]. *)

val is_none : t -> bool
(** True when every fault knob is off (the seed is irrelevant then). *)

val reseed : t -> int -> t
(** [reseed t k] derives an independent-looking plan for protocol phase
    [k] of a composite run, keeping every knob but mixing the seed. *)

val crash_round : t -> int -> int option
(** The round at which a node crashes, if scheduled. *)

val behaviour_of : t -> int -> behaviour option
(** The Byzantine behaviour scheduled for a node, if any. *)

val severed : t -> round:int -> src:int -> dst:int -> bool
(** Whether the (undirected) link is cut by an active partition.
    Evaluated at send time. *)
