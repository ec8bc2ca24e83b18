(** Failure-detector configuration and outcome summary — pure data, so
    the engine layer ([lib/core]) can name a detector without depending
    on the simulator that runs it
    ([Xheal_distributed.Failure_detector]).

    The protocol the config parameterises is heartbeat/timeout
    suspicion over Netsim virtual time: every node beats every [period]
    time units (until [horizon]); a node that has heard nothing from a
    neighbour for [timeout] units {e suspects} it and gossips the
    suspicion; peers holding fresh evidence {e refute} it; a suspicion
    that survives [confirm] further units of silence is {e confirmed}
    and triggers the repair. Refuted suspects climb a per-neighbour
    timeout ladder — each false alarm adds [ladder] units to that
    neighbour's effective timeout — so a lossy link stops crying wolf
    instead of oscillating. *)

type t = {
  seed : int;  (** Seeds the per-run identity of the detector's hashes. *)
  period : int;  (** Heartbeat interval in virtual-time units (>= 1). *)
  timeout : int;
      (** Base silence (in units) before a neighbour is suspected; must
          cover at least one period or every beat gap is an alarm. *)
  ladder : int;
      (** Timeout increment per refuted suspicion (>= 0); caps at three
          rungs. *)
  confirm : int;
      (** Further silence (in units) a suspicion must survive before it
          is confirmed and the repair triggers (>= 1). *)
  horizon : int;
      (** Virtual time at which nodes stop beating, bounding the run;
          must leave room for at least one beat (>= period). *)
}

val make :
  ?seed:int ->
  ?period:int ->
  ?timeout:int ->
  ?ladder:int ->
  ?confirm:int ->
  ?horizon:int ->
  unit ->
  t
(** Defaults: [seed 0], [period 2], [timeout 5], [ladder 3],
    [confirm 4], [horizon 40].
    @raise Invalid_argument on a zero or negative heartbeat period, on
    [timeout < period], [ladder < 0], [confirm < 1], or a horizon with
    no room for a single beat. *)

val latency_bound : t -> fairness:int -> int
(** Worst-case crash-to-confirmation latency under a schedule with
    fairness bound [F]: the victim's last beat can predate the crash by
    a full period and linger in flight for [F] units, the suspicion
    ladder can be fully climbed, and confirmation waits [confirm] more
    units. The Monitor checks measured detection latencies against
    exactly this bound. *)

type outcome = {
  detected : bool;  (** Some live node confirmed the crashed target. *)
  latency : int;
      (** First confirmation time minus crash time; [-1] when
          undetected. *)
  suspicions : int;  (** Suspect transitions across all observers. *)
  refutations : int;  (** Suspicions retracted on fresh evidence. *)
  confirmations : int;  (** Observers whose suspicion was confirmed. *)
}

val no_outcome : outcome
(** The all-zero summary ([detected = false], [latency = -1]). *)
