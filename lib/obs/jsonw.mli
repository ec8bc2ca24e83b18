(** Minimal deterministic JSON layer for the observability exporters.

    The writer is byte-deterministic: fields print in the order given,
    numbers print with fixed formats, and no whitespace depends on the
    environment — so two exports of identical data are identical byte
    strings, which is exactly what the trace-replay invariant (same seed
    ⇒ byte-identical export) needs.

    The reader is a small recursive-descent parser covering the JSON
    subset the writer emits (and standard JSON generally, minus [\u]
    escapes beyond ASCII); it exists so the SARIF check and the test
    suite can validate emitted records without external
    dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Printed with ["%.6f"] (["%.1f"] for integral values); NaN and
          infinities print as [null] — JSON has no non-finite literal.
          Not for replay-compared data. *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Fields print in list order. *)

val to_string : t -> string
(** Compact, single-line, deterministic encoding. *)

val to_string_pretty : t -> string
(** Two-space indented encoding, equally deterministic. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)
