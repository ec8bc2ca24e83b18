(** Repair-cost accounting in the paper's complexity model (Section 5):
    synchronous rounds and message counts per recovery phase. The
    per-phase formulas follow the proof of Theorem 5; the distributed
    simulator in [xheal_distributed] independently measures the same
    quantities by actually running the protocols. *)

type case =
  | Case1
  | Case21
  | Case22
  | Batch of int  (** Multi-deletion of the given number of victims. *)
  | Insertion

val case_to_string : case -> string

type phase = { label : string; rounds : int; messages : int }

(** What protocol runs actually cost, as measured by the simulator: the
    bill of one priced phase, and summed with {!add_measured} the bill
    of a whole repair. *)
type measured = {
  m_rounds : int;
  m_messages : int;
  m_words : int;  (** CONGEST payload volume (see [Xheal_distributed.Msg.size_words]). *)
  m_converged : bool;  (** Every run quiesced in budget. *)
  m_dropped : int;
  m_duplicated : int;
  m_delayed : int;
  m_tampered : int;  (** Sends rewritten or swallowed by Byzantine senders. *)
  m_escalations : int;
      (** Phases re-run with defenses escalated after cross-validation
          flagged an inconsistency (see [Xheal_distributed.Pricing]). *)
}

val zero_measured : measured

val add_measured : measured -> measured -> measured

type report = {
  seq : int;  (** 1-based index of the deletion in the attack sequence. *)
  case : case;
  phases : phase list;  (** In execution order. *)
  rounds : int;  (** Sum of phase rounds. *)
  messages : int;
  combined : bool;  (** Whether the costly combine operation fired. *)
  edges_added : int;
  edges_removed : int;
  clouds_touched : int;
  measured : measured;
      (** The summed bill of the repair's measured phases;
          {!zero_measured} for a closed-form repair. *)
}

val empty_report : seq:int -> case -> report

val add_phase : report -> label:string -> rounds:int -> messages:int -> report

(** {1 Measured pricing}

    When the engine is given a {!backend}, protocol-backed phases are
    priced by actually running them under the effective plan and schedule
    instead of the closed forms below — retries, duplicates, delays and
    defense escalations included. *)

(** Protocol drivers the engine calls to price phases under a plan. The
    implementation lives in [Xheal_distributed.Pricing] (the core library
    cannot depend on the simulator, so the engine takes it as a value).
    [phase] is a monotone per-engine counter; implementations must derive
    per-phase fault streams from it ({!Xheal_fault.Fault_plan.reseed}) so
    runs replay bit-for-bit. Backends must draw randomness only from
    their own private RNG — never from the engine's — so the healed graph
    is identical under any plan. *)
type backend = {
  run_elect :
    plan:Xheal_fault.Fault_plan.t ->
    schedule:Xheal_fault.Schedule.t ->
    phase:int ->
    members:int list ->
    measured * int option;
      (** Leader election among [members]; also returns the elected id
          (None when the election failed to converge). *)
  run_build :
    plan:Xheal_fault.Fault_plan.t ->
    schedule:Xheal_fault.Schedule.t ->
    phase:int ->
    leader:int ->
    members:int list ->
    measured;
      (** Leader distributes a κ-regular H-graph over [members]. *)
  run_combine :
    plan:Xheal_fault.Fault_plan.t ->
    schedule:Xheal_fault.Schedule.t ->
    phase:int ->
    clouds:(int list * (int * int) list) list ->
    measured;
      (** BFS/convergecast over the union of the given cloud snapshots
          ([members, current edges] each), then rebuild. *)
  run_detect :
    plan:Xheal_fault.Fault_plan.t ->
    schedule:Xheal_fault.Schedule.t ->
    phase:int ->
    victim:int ->
    peers:int list ->
    config:Xheal_fault.Detect.t ->
    measured * Xheal_fault.Detect.outcome;
      (** Heartbeat failure detection over the NoN clique of [victim] and
          its [peers]: the simulated discovery of the crash that triggers
          the repair, replacing the deletion oracle. Returns the measured
          traffic and the detection outcome (latency rebased to the
          simulated crash time). *)
}

type totals = {
  deletions : int;
  insertions : int;
  total_rounds : int;
  total_messages : int;
  max_rounds : int;
  combines : int;
  total_edges_added : int;
  total_edges_removed : int;
  black_degree_deleted : int;
      (** Sum over deletions of the deleted node's degree in [G'] — the
          denominator of Lemma 5's amortized lower bound [A(p)]. *)
  unconverged : int;  (** Repairs with at least one unquiesced phase. *)
  escalations : int;  (** Total defense escalations across repairs. *)
}

val zero_totals : totals

val accumulate : totals -> report -> black_degree:int -> totals

val amortized_messages : totals -> float
(** Messages per deletion. *)

val amortized_lower_bound : totals -> float
(** Lemma 5's [A(p)]: average deleted black-degree. *)

val overhead_ratio : totals -> float
(** [amortized_messages / amortized_lower_bound]; Theorem 5 predicts
    [O(κ log n)]. *)

(** {1 Phase formulas (Theorem 5 proof)} *)

val elect : int -> int * int
(** [(rounds, messages)] for electing a leader among [k] known nodes. *)

val distribute : kappa:int -> int -> int * int
(** Leader locally builds a κ-regular H-graph over [z] nodes and informs
    every node of its incident edges. *)

val splice : kappa:int -> int * int
(** One H-graph DELETE/INSERT splice. *)

val find_free : int -> int * int
(** Querying [j] cloud leaders for free nodes. *)

val leader_replace : int -> int * int
(** Vice-leader promotes itself and informs a cloud of [z] nodes. *)

val combine : kappa:int -> int -> int * int
(** Merging clouds totalling [s] members: BFS tree + collect + broadcast. *)
