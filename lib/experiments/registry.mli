(** All experiments, in DESIGN.md §4 order. *)

val all : Exp.t list

val find : string -> Exp.t option
(** Case-insensitive lookup by the id of any experiment of {!all}. *)

val run_all : ?quick:bool -> ?ids:string list -> out:(string -> unit) -> unit -> bool
(** Runs (a subset of) the experiments, streaming rendered reports to
    [out]. Returns [true] iff every executed experiment's claim held.
    @raise Invalid_argument, before running anything, when an id of
    [ids] names no experiment; the message names the id and lists the
    valid ones. *)
