(** Experiment harness scaffolding. The paper (PODC 2011 theory) has no
    experimental tables; each experiment here operationalizes one theorem
    of the evaluation (see DESIGN.md §4 for the index) and prints a table
    in the same who-wins/by-how-much shape the theorems predict. *)

type t = {
  id : string;  (** "E1", …, "A3": see {!Registry.all}. *)
  title : string;
  claim : string;  (** The paper statement being checked. *)
  run : quick:bool -> result;
}

and result = {
  table : string;  (** Rendered table (see {!Xheal_metrics.Table}). *)
  notes : string list;  (** Observations, including pass/fail verdicts. *)
  ok : bool;  (** Whether the paper's qualitative claim held. *)
}

val seeded : int -> Random.State.t
(** Deterministic RNG for experiment [i] (results are reproducible). *)

val note_verdict : bool -> string -> string
(** Prefixes ["PASS: "] or ["FAIL: "]. *)

val render : t -> result -> string
(** Full report block: header, claim, table, notes. *)
