(** Deterministic metrics registry: named counters, gauges and
    fixed-bucket histograms.

    Everything here is driven by virtual time and seeded runs — there is
    no clock and no randomness, and every accessor that enumerates
    metrics does so in sorted-name order, so a metrics dump is a pure
    function of the recorded observations. Two replays of the same
    seeded scenario must produce byte-identical {!to_json} output; the
    observability test suite asserts exactly that. *)

type t
(** A registry. Metrics are created on first use of a name; reusing a
    name with a different metric kind raises [Invalid_argument]. *)

val create : unit -> t

(** {1 Counters} — monotone event counts (messages sent, drops, ...). *)

type counter

val counter : t -> string -> counter
(** Find-or-create. *)

val incr : counter -> unit

val incr_by : counter -> int -> unit
(** @raise Invalid_argument on a negative increment. *)

(** {1 Gauges} — the running maximum of an instantaneous value (queue
    depth). *)

type gauge

val gauge : t -> string -> gauge

val gauge_max : gauge -> int -> unit
(** Keep the running maximum of the observed values. *)

(** {1 Histograms} — fixed upper-bound buckets, plus count/sum/min/max. *)

type histogram

val histogram : t -> string -> buckets:int array -> histogram
(** [buckets] are inclusive upper bounds, strictly increasing; an
    implicit overflow bucket catches everything above the last bound.
    Re-acquiring an existing histogram checks that the bounds match.
    @raise Invalid_argument on empty or non-increasing bounds. *)

val observe : histogram -> int -> unit

val histogram_count : histogram -> int

val histogram_sum : histogram -> int

val histogram_buckets : histogram -> (int option * int) list
(** [(upper_bound, count)] per bucket in bound order; [None] is the
    overflow bucket. *)

type summary = {
  s_count : int;
  s_sum : int;
  s_min : int;
  s_max : int;
  s_mean : float;
}
(** Deterministic digest of a histogram's observations — reports consume
    this instead of re-deriving stats from buckets. An empty histogram
    summarizes to all zeros (not [max_int]/[min_int] sentinels). *)

val summary : histogram -> summary

val summary_json : summary -> Jsonw.t
(** [{"count":…,"sum":…,"min":…,"max":…,"mean":…}]; mean is the only
    float and is a pure function of two ints, so the encoding is
    byte-deterministic. *)

(** {1 Enumeration and export} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val summaries : t -> (string * summary) list
(** One {!summary} per histogram, sorted by name. *)

val to_json : t -> Jsonw.t
(** Flat dump: one object field per metric, sorted by name, each
    carrying its kind and value(s). Byte-deterministic given equal
    observations. *)
