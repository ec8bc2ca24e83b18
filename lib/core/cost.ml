type case = Case1 | Case21 | Case22 | Batch of int | Insertion

let case_to_string = function
  | Case1 -> "case-1 (all black)"
  | Case21 -> "case-2.1 (primary clouds)"
  | Case22 -> "case-2.2 (bridge node)"
  | Batch k -> Printf.sprintf "batch deletion (%d victims)" k
  | Insertion -> "insertion"

type phase = { label : string; rounds : int; messages : int }

type measured = {
  m_rounds : int;
  m_messages : int;
  m_words : int;
  m_converged : bool;
  m_dropped : int;
  m_duplicated : int;
  m_delayed : int;
  m_tampered : int;
  m_escalations : int;
}

let zero_measured =
  {
    m_rounds = 0;
    m_messages = 0;
    m_words = 0;
    m_converged = true;
    m_dropped = 0;
    m_duplicated = 0;
    m_delayed = 0;
    m_tampered = 0;
    m_escalations = 0;
  }

let add_measured a b =
  {
    m_rounds = a.m_rounds + b.m_rounds;
    m_messages = a.m_messages + b.m_messages;
    m_words = a.m_words + b.m_words;
    m_converged = a.m_converged && b.m_converged;
    m_dropped = a.m_dropped + b.m_dropped;
    m_duplicated = a.m_duplicated + b.m_duplicated;
    m_delayed = a.m_delayed + b.m_delayed;
    m_tampered = a.m_tampered + b.m_tampered;
    m_escalations = a.m_escalations + b.m_escalations;
  }

type report = {
  seq : int;
  case : case;
  phases : phase list;
  rounds : int;
  messages : int;
  combined : bool;
  edges_added : int;
  edges_removed : int;
  clouds_touched : int;
  measured : measured;
}

let empty_report ~seq case =
  {
    seq;
    case;
    phases = [];
    rounds = 0;
    messages = 0;
    combined = false;
    edges_added = 0;
    edges_removed = 0;
    clouds_touched = 0;
    measured = zero_measured;
  }

let add_phase r ~label ~rounds ~messages =
  {
    r with
    phases = r.phases @ [ { label; rounds; messages } ];
    rounds = r.rounds + rounds;
    messages = r.messages + messages;
  }

type backend = {
  run_elect :
    plan:Xheal_fault.Fault_plan.t ->
    schedule:Xheal_fault.Schedule.t ->
    phase:int ->
    members:int list ->
    measured * int option;
  run_build :
    plan:Xheal_fault.Fault_plan.t ->
    schedule:Xheal_fault.Schedule.t ->
    phase:int ->
    leader:int ->
    members:int list ->
    measured;
  run_combine :
    plan:Xheal_fault.Fault_plan.t ->
    schedule:Xheal_fault.Schedule.t ->
    phase:int ->
    clouds:(int list * (int * int) list) list ->
    measured;
  run_detect :
    plan:Xheal_fault.Fault_plan.t ->
    schedule:Xheal_fault.Schedule.t ->
    phase:int ->
    victim:int ->
    peers:int list ->
    config:Xheal_fault.Detect.t ->
    measured * Xheal_fault.Detect.outcome;
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
  unconverged : int;
  escalations : int;
}

let zero_totals =
  {
    deletions = 0;
    insertions = 0;
    total_rounds = 0;
    total_messages = 0;
    max_rounds = 0;
    combines = 0;
    total_edges_added = 0;
    total_edges_removed = 0;
    black_degree_deleted = 0;
    unconverged = 0;
    escalations = 0;
  }

let accumulate t r ~black_degree =
  let is_deletion = r.case <> Insertion in
  {
    deletions = (t.deletions + if is_deletion then 1 else 0);
    insertions = (t.insertions + if is_deletion then 0 else 1);
    total_rounds = t.total_rounds + r.rounds;
    total_messages = t.total_messages + r.messages;
    max_rounds = max t.max_rounds r.rounds;
    combines = (t.combines + if r.combined then 1 else 0);
    total_edges_added = t.total_edges_added + r.edges_added;
    total_edges_removed = t.total_edges_removed + r.edges_removed;
    black_degree_deleted = (t.black_degree_deleted + if is_deletion then black_degree else 0);
    unconverged = (t.unconverged + if r.measured.m_converged then 0 else 1);
    escalations = t.escalations + r.measured.m_escalations;
  }

let amortized_messages t =
  if t.deletions = 0 then 0.0 else float_of_int t.total_messages /. float_of_int t.deletions

let amortized_lower_bound t =
  if t.deletions = 0 then 0.0
  else float_of_int t.black_degree_deleted /. float_of_int t.deletions

let overhead_ratio t =
  let lb = amortized_lower_bound t in
  if lb <= 0.0 then 0.0 else amortized_messages t /. lb

let log2_ceil k =
  let rec go acc p = if p >= k then acc else go (acc + 1) (p * 2) in
  if k <= 1 then 0 else go 0 1

let elect k = if k <= 1 then (0, 0) else (log2_ceil k + 1, k * (log2_ceil k + 1))

let distribute ~kappa z = if z <= 1 then (0, 0) else (1, kappa * z)

let splice ~kappa = (1, 2 * kappa)

let find_free j = if j = 0 then (0, 0) else (1, 2 * j)

let leader_replace z = if z <= 1 then (0, 0) else (1, z)

let combine ~kappa s =
  if s <= 1 then (0, 0)
  else
    let lg = log2_ceil s in
    (* BFS-tree construction over O(log n)-diameter cloud union, address
       convergecast, local H-graph build, broadcast of incident edges. *)
    ((2 * lg) + 3, kappa * s * max 1 lg)
