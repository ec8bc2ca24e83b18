(** Calendar ring of timed events, the spine of every {!Netsim} run.

    The queue keeps a cursor [now] and accepts events only inside the
    window [(now, now + span]]. It holds [2^k > span] buckets; an event
    for [time] is consed onto bucket [time land (2^k - 1)], so each
    bucket holds one time and same-time events come out newest push
    first. That is exactly the inbox order of the historical
    synchronous round loop, so the event engine under a synchronous
    schedule is conformant with it (see [Netsim.run_reference]). *)

type 'a t

val create : span:int -> 'a t
(** An empty queue with cursor [0] for delays in [1 .. span].
    @raise Invalid_argument if [span < 1]. *)

val is_empty : 'a t -> bool

val length : 'a t -> int

val add : 'a t -> time:int -> 'a -> unit
(** Schedules an event at [time].
    @raise Invalid_argument unless [now < time <= now + span], so a
    broken delay bound fails loudly instead of aliasing a bucket. *)

val pop_due : 'a t -> now:int -> 'a list
(** Moves the cursor to [now] and removes and returns the events due at
    [now], newest push first.
    @raise Invalid_argument if [now] is before the cursor, or if an
    event earlier than [now] is still pending (it would be skipped). *)

val next_time : 'a t -> int
(** The earliest pending event time, found by scanning at most [span]
    buckets; [now + 1] when the queue is empty. *)
