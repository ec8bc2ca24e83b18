type t = { metrics : Metrics.t; tracer : Tracer.t }

let create () = { metrics = Metrics.create (); tracer = Tracer.create () }

let metrics_string t = Jsonw.to_string (Metrics.to_json t.metrics)

let trace_string t = Chrome_trace.to_string t.tracer
