(** Chrome trace-event exporter.

    Renders a {!Tracer} recording as the JSON Array-with-metadata format
    understood by [chrome://tracing] and Perfetto: one thread per track
    (nodes on their own tracks, {!Tracer.control_track} named "phases"),
    complete ("X") events for spans, instant ("i") events, and counter
    ("C") events for samples, all over virtual time (1 virtual time unit
    = 1 µs of trace time).

    The output is byte-deterministic for a given recording: events
    export in recording order and metadata in sorted track order, so
    seeded replays export identical bytes. *)

val to_json : Tracer.t -> Jsonw.t

val to_string : Tracer.t -> string
(** [Jsonw.to_string (to_json t)]. *)

val write_file : string -> Tracer.t -> unit
(** Writes {!to_string} to the file.
    @raise Sys_error when the file cannot be opened or written. *)
