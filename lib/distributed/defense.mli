(** Individually toggleable cross-validation defenses for the [_robust]
    protocol variants, so experiments can ablate each one against a
    Byzantine {!Fault_plan}. All default off: [Defense.none] makes the
    hardened protocols behave exactly like the pre-defense versions. *)

type t = {
  victory_echo : bool;
      (** Election: don't adopt a [Victory] on first receipt — echo the
          claim to a rotating witness over a second path and adopt only
          when the witness's belief matches. *)
  rank_commit : bool;
      (** Election: remember each candidate's first announced rank;
          conflicting or out-of-coin-domain ranks brand the candidate a
          liar and exclude it from the championship. *)
  subtree_quorum : bool;
      (** BFS echo: before merging a child's [Subtree] claim, ask each
          claimed member directly ([Vote]) and merge only confirmed
          ids. *)
  edge_mutual : bool;
      (** Cloud build: reply to a [Hello] only when the peer appears in
          the receiver's own incident-edge list, so phantom edges are
          never established. *)
}

val none : t
val all : t

val make :
  ?victory_echo:bool ->
  ?rank_commit:bool ->
  ?subtree_quorum:bool ->
  ?edge_mutual:bool ->
  unit ->
  t
(** Omitted toggles default to off. *)

(** How a composite repair ({!Pricing}) applies defenses across its
    phases.

    - [Static d]: every hardened phase runs with exactly [d].
    - [Adaptive]: every phase first runs with [relaxed]; the repair
      then cross-validates the phase's outcome {e without oracle
      knowledge} — unquiesced runs, missing / phantom /
      out-of-member-set leaders, belief disagreement among participants,
      planned edges leaving the member set, or an echoed member list that
      differs from the cloud roster — and re-runs {e only the loud
      phase} with [escalated], summing both runs' costs and counting
      one escalation. Quiet phases never pay the defense
      premium; this replaces the unconditional always-on overhead the
      E14 defense stack charges. *)
type policy = Static of t | Adaptive of { relaxed : t; escalated : t }

val static : t -> policy

val adaptive : policy
(** [Adaptive] from {!none} to {!all}. *)
