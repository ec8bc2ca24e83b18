(** Span/event tracer keyed on {e virtual time only}.

    Callers pass the simulator's [~now]; the tracer never reads a clock
    (xlint D3 bans wall-clock in [lib/]), so a trace is a pure function
    of the seeded run that produced it — same seed ⇒ byte-identical
    export.

    Tracks model Chrome-trace threads: one per simulated node (use the
    node id) plus {!control_track} for engine/phase-level spans. Spans
    on one track must nest properly; {!begin_span}/{!end_span} maintain
    a per-track stack and closing a span on an empty track is an error
    (the orphan the test suite pins down).

    Composite runs (a repair pipeline running several protocol phases,
    each on a fresh simulator clock starting at 0) lay their phases out
    on one timeline with {!set_base}: every recorded timestamp is
    [base + now] at call time. *)

type t

(** A completed recording, in completion order. *)
type event = {
  name : string;
  track : int;
  ts : int;  (** Absolute virtual time ([base + now] at recording). *)
  data : kind;
}

and kind =
  | Span of { dur : int }
  | Instant
  | Sample of { value : int }  (** Counter track sample (queue depth). *)

val control_track : int
(** Track [-1], conventionally used for engine/phase-level spans. *)

val create : unit -> t

val set_base : t -> int -> unit
(** Set the virtual-time offset added to every subsequent [~now]. *)

val base : t -> int

val begin_span : t -> track:int -> name:string -> now:int -> unit

val end_span : t -> track:int -> now:int -> unit
(** Closes the innermost open span on [track].
    @raise Invalid_argument when the track has no open span (orphan
    end), or when the end time precedes the span's begin time. *)

val instant : t -> track:int -> name:string -> now:int -> unit

val sample : t -> track:int -> name:string -> now:int -> value:int -> unit

val claim_clock : t -> string -> unit
(** Declare the time base the caller's [~now] values are on (the repo's
    two-clock convention: the engine records on ["engine-rounds"], the
    cost-model round charges; protocol code on ["net-virtual"], Netsim
    virtual time). Idempotent per name. A tracer claimed for two
    different clocks has an unreadable timeline — {!check} reports it. *)

val check : t -> (unit, string) result
(** [Error] when any span is still open — an export at this point would
    silently lose it — or when more than one clock has been claimed
    (mixed-clock timeline; the message names the clocks in the order
    they were first claimed). *)

val events : t -> event list
(** Completed events in recording order (spans appear at completion). *)

(** {1 Flamegraph-style aggregation} *)

type agg = {
  agg_name : string;
  count : int;  (** Completed spans bearing this name. *)
  total : int;  (** Summed durations (virtual time). *)
  self : int;
      (** [total] minus the durations of each span's {e direct} children
          — what the span spent outside nested spans. Summed over every
          nesting level, self times partition the traced time exactly. *)
}

val aggregate : t -> agg list
(** Per-span-name totals across all tracks, sorted by name. Nesting is
    reconstructed from the recorded intervals (per track, a span's
    parent is the innermost enclosing interval), so phase layouts built
    with {!set_base} aggregate correctly. Instants and samples are
    ignored. *)
