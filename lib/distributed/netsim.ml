module Obs = Xheal_obs
module Metrics = Xheal_obs.Metrics
module Tracer = Xheal_obs.Tracer

type handler = now:int -> inbox:(int * Msg.t) list -> (int * Msg.t) list

type envelope = { src : int; dst : int; msg : Msg.t }

type t = {
  nodes : (int, handler) Hashtbl.t;
  mutable sent : int;
  mutable words : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable tampered : int;
  (* Observability. [reg] always exists (the per-message-type counters
     of [stats.per_type] are read back from it, so stats and metrics
     cannot drift); [obs] is the externally supplied scope, present only
     when the caller wants trace events too. *)
  reg : Metrics.t;
  obs : Obs.Scope.t option;
}

type type_counts = {
  delivered : int;
  dropped : int;
  duplicated : int;
  tampered : int;
}

type stats = {
  rounds : int;
  messages : int;
  words : int;
  converged : bool;
  dropped : int;
  duplicated : int;
  delayed : int;
  tampered : int;
  per_type : (string * type_counts) list;
}

let create ?obs () =
  let reg =
    match obs with Some sc -> sc.Obs.Scope.metrics | None -> Metrics.create ()
  in
  { nodes = Hashtbl.create 32; sent = 0; words = 0; dropped = 0;
    duplicated = 0; delayed = 0; tampered = 0; reg; obs }

(* ------------------------------------------------------------------ *)
(* Per-message-type accounting. Counters live in the registry; the    *)
(* [per_type] block of the returned stats is the delta of those       *)
(* counters over the run, so a shared registry (several nets, several *)
(* runs) never bleeds counts across runs.                             *)

let count t action msg =
  Metrics.incr (Metrics.counter t.reg ("netsim." ^ action ^ "." ^ Msg.kind msg))

let trace_instant t ~prefix ~now ~dst msg =
  match t.obs with
  | Some sc ->
    Tracer.claim_clock sc.Obs.Scope.tracer "net-virtual";
    Tracer.instant sc.Obs.Scope.tracer ~track:dst ~name:(prefix ^ Msg.kind msg) ~now
  | None -> ()

let note_dropped ?(now = -1) (t : t) ~dst msg =
  t.dropped <- t.dropped + 1;
  count t "dropped" msg;
  if now >= 0 then trace_instant t ~prefix:"drop:" ~now ~dst msg

let note_delivered (t : t) ~now ~dst msg =
  count t "delivered" msg;
  trace_instant t ~prefix:"recv:" ~now ~dst msg

let note_duplicated (t : t) ~now ~dst msg =
  t.duplicated <- t.duplicated + 1;
  count t "duplicated" msg;
  if now >= 0 then trace_instant t ~prefix:"dup:" ~now ~dst msg

let note_delayed (t : t) ~now ~dst msg =
  t.delayed <- t.delayed + 1;
  count t "delayed" msg;
  if now >= 0 then trace_instant t ~prefix:"delay:" ~now ~dst msg

let note_tampered (t : t) ~now ~dst msg =
  t.tampered <- t.tampered + 1;
  count t "tampered" msg;
  if now >= 0 then trace_instant t ~prefix:"byz:" ~now ~dst msg

let sample_inflight t ~now depth =
  Metrics.gauge_max (Metrics.gauge t.reg "netsim.inflight.max") depth;
  match t.obs with
  | Some sc ->
    Tracer.claim_clock sc.Obs.Scope.tracer "net-virtual";
    Tracer.sample sc.Obs.Scope.tracer ~track:Tracer.control_track ~name:"inflight" ~now
      ~value:depth
  | None -> ()

let netsim_counter_snapshot t =
  List.filter
    (fun (name, _) -> String.length name >= 7 && String.sub name 0 7 = "netsim.")
    (Metrics.counters t.reg)

let split_counter name =
  match String.split_on_char '.' name with
  | [ "netsim"; action; kind ] -> Some (action, kind)
  | _ -> None

let zero_counts = { delivered = 0; dropped = 0; duplicated = 0; tampered = 0 }

let per_type_since t before =
  let tally : (string, type_counts) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      match split_counter name with
      | Some (action, kind) ->
        let d = v - Option.value ~default:0 (List.assoc_opt name before) in
        if d > 0 then begin
          let cur = Option.value ~default:zero_counts (Hashtbl.find_opt tally kind) in
          let cur =
            match action with
            | "delivered" -> { cur with delivered = cur.delivered + d }
            | "dropped" -> { cur with dropped = cur.dropped + d }
            | "duplicated" -> { cur with duplicated = cur.duplicated + d }
            | "tampered" -> { cur with tampered = cur.tampered + d }
            | _ -> cur
          in
          Hashtbl.replace tally kind cur
        end
      | None -> ())
    (netsim_counter_snapshot t);
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun kind counts acc -> (kind, counts) :: acc) tally [])

let add_node t id handler =
  if Hashtbl.mem t.nodes id then invalid_arg "Netsim.add_node: duplicate id";
  Hashtbl.replace t.nodes id handler

let sorted_ids t =
  List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [])

(* ------------------------------------------------------------------ *)
(* Event-driven engine.                                               *)
(*                                                                    *)
(* One engine serves both delivery models. A priority queue holds the *)
(* in-flight messages keyed by (delivery time, seq); the virtual      *)
(* clock [now] advances to the next event time (asynchronous          *)
(* schedules) or tick by tick (the synchronous schedule, which also   *)
(* steps every node at every integer time — the LOCAL round model).   *)
(*                                                                    *)
(* The seq counter DECREASES: within one delivery time, newer sends   *)
(* pop first. That is exactly the inbox order of the historical       *)
(* synchronous loop (outgoing was consed, then prepended to the       *)
(* leftovers), so under Schedule.sync this engine is bit-identical to *)
(* run_reference — the conformance property in test_async.ml gates    *)
(* precisely this.                                                    *)

(* xlint: hot *)
let run ?(max_rounds = 10_000) ?(plan = Fault_plan.none) ?(grace = 0)
    ?(schedule = Schedule.sync) ?trace (t : t) =
  let pure = Fault_plan.is_none plan in
  let sync = Schedule.is_sync schedule in
  let before = netsim_counter_snapshot t in
  let frng = Random.State.make [| plan.Fault_plan.seed; 0xfa17 |] in
  let q : envelope Event_queue.t = Event_queue.create () in
  let seq = ref 0 in
  let push ~time env =
    Event_queue.add q ~time ~seq:!seq env;
    decr seq
  in
  (* Online adversary observation: a running avalanche digest of every
     send entering the gauntlet plus per-link send shares, maintained
     only when the plan or schedule is adaptive (zero state otherwise).
     Both engines update it at the same point — gauntlet entry — so the
     sync-conformance story extends to adaptive plans verbatim. *)
  let adapt =
    plan.Fault_plan.adaptive
    || (match schedule with Schedule.Adaptive _ -> true | _ -> false)
  in
  let digest = ref 0 in
  let obs_total = ref 0 in
  let obs_count : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let observe ~src ~dst msg =
    incr obs_total;
    let c = 1 + Option.value ~default:0 (Hashtbl.find_opt obs_count (src, dst)) in
    Hashtbl.replace obs_count (src, dst) c;
    digest := Schedule.observe !digest ~src ~dst ~words:(Msg.size_words msg);
    (* "Hot": the link carries at least an eighth of all observed
       traffic — the adaptive adversary's drop target. *)
    8 * c >= !obs_total
  in
  (* Per-directed-link send counter: the schedule's adversary keys its
     delay choice on (src, dst, k) so runs replay bit-for-bit. *)
  let link_seq : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let sched_delay ~src ~dst =
    if sync then 1
    else begin
      let k = Option.value ~default:0 (Hashtbl.find_opt link_seq (src, dst)) in
      Hashtbl.replace link_seq (src, dst) (k + 1);
      Schedule.delay_observed schedule ~src ~dst ~k ~traffic:!digest
    end
  in
  let now = ref 0 in
  (* Network activity beyond the queue: a send swallowed by the fault
     gauntlet, or a delivery dropped on a crashed destination. Either
     way the sender is (or may be) mid-retry, so the step must not
     count as idle — otherwise a lossy run could quiesce out from under
     a protocol that was about to resend. *)
  let active = ref false in
  (* Byzantine rewriting happens before the gauntlet: a lying node hands
     the network a per-recipient forgery, which is then dropped/delayed
     like any honest send. The per-link index [k] is bumped only for
     targeted sends from scheduled liars, so plans without [byzantine]
     entries take the fast path with zero extra state. No RNG is drawn:
     the rewrite is a pure hash of (seed, src, dst, k). *)
  let byz = plan.Fault_plan.byzantine <> [] in
  let byz_seq : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let tampering ~src ~dst msg =
    if not byz then Some msg
    else
      match Fault_plan.behaviour_of plan src with
      | None -> Some msg
      | Some _ when not (Byzantine.targeted msg) -> Some msg
      | Some _ ->
        let k = Option.value ~default:0 (Hashtbl.find_opt byz_seq (src, dst)) in
        Hashtbl.replace byz_seq (src, dst) (k + 1);
        note_tampered t ~now:!now ~dst msg;
        (match Byzantine.tamper plan ~src ~dst ~k msg with
        | None ->
          (* Silent-on-protocol: the swallowed send is activity exactly
             like a gauntlet drop — the sender keeps retrying. *)
          active := true;
          None
        | Some msg' ->
          (* Words were charged for the honest payload at send time;
             what actually enters the wire is the forgery. *)
          t.words <- t.words + Msg.size_words msg' - Msg.size_words msg;
          Some msg')
  in
  (* The fault gauntlet for one send: partition, drop, duplicate,
     delay — same checks, same RNG draw order (drop → duplicate →
     per-copy delay) and same push order as the reference loop, but the
     surviving copies are enqueued directly: no per-copy extras list, no
     per-send closure, and duplicate copies share one envelope record. *)
  let gauntlet_push env =
    let dst = env.dst and msg = env.msg in
    let hot = if adapt then observe ~src:env.src ~dst msg else false in
    if pure then push ~time:(!now + sched_delay ~src:env.src ~dst) env
    else if Fault_plan.severed plan ~round:!now ~src:env.src ~dst then begin
      note_dropped ~now:!now t ~dst msg;
      active := true
    end
    else if
      plan.Fault_plan.drop > 0.
      && (let u = Random.State.float frng 1.0 in
          if plan.Fault_plan.adaptive then Fault_plan.adaptive_drop plan ~u ~hot
          else u < plan.Fault_plan.drop)
    then begin
      note_dropped ~now:!now t ~dst msg;
      active := true
    end
    else begin
      let copies =
        if
          plan.Fault_plan.duplicate > 0.
          && Random.State.float frng 1.0 < plan.Fault_plan.duplicate
        then begin
          note_duplicated t ~now:!now ~dst msg;
          2
        end
        else 1
      in
      for _ = 1 to copies do
        let extra =
          if plan.Fault_plan.delay > 0. && Random.State.float frng 1.0 < plan.Fault_plan.delay
          then begin
            note_delayed t ~now:!now ~dst msg;
            1 + Random.State.int frng plan.Fault_plan.max_delay
          end
          else 0
        in
        push ~time:(!now + sched_delay ~src:env.src ~dst + extra) env
      done
    end
  in
  let ids = sorted_ids t in
  let quiesced = ref false in
  let idle = ref 0 in
  let running = ref (max_rounds > 0) in
  (* Queue depth is sampled on a fixed virtual-time cadence (every
     integer time), not just when the loop happens to wake. Between two
     event times the queue is untouched, so back-filling the skipped
     ticks with the current pre-pop depth is historically accurate; under
     the synchronous schedule the loop wakes at every tick anyway and
     this degenerates to the old once-per-round sample, byte-identical
     traces included. *)
  let next_sample = ref 0 in
  (* One inbox table for the whole run, cleared per iteration: the
     delivery loop used to allocate a fresh table every round, which
     dominated minor-heap churn on million-event runs. *)
  let inboxes : (int, (int * Msg.t) list) Hashtbl.t = Hashtbl.create 64 in
  (* Delivery and node stepping are hoisted out of the round loop: the
     closures capture only loop-invariant state (t, plan, trace, the
     refs), so allocating them per round was pure churn — found by H1
     once [run] was marked hot. The per-send body is a recursive helper
     rather than a closure over [id] for the same reason. Operation
     order is untouched: the conformance property (bit-identity with
     [run_reference] under Schedule.sync) gates these rewrites. *)
  let deliver e =
    match Fault_plan.crash_round plan e.dst with
    | Some c when c <= !now ->
      note_dropped ~now:!now t ~dst:e.dst e.msg;
      (* A delivery eaten by a crash is activity exactly like a
         gauntlet drop: the sender may be waiting on an ack that
         will never come and needs its retry window kept open. *)
      active := true
    | _ ->
      (match trace with
      | Some f -> f ~now:!now ~src:e.src ~dst:e.dst e.msg
      | None -> ());
      note_delivered t ~now:!now ~dst:e.dst e.msg;
      let prev = Option.value ~default:[] (Hashtbl.find_opt inboxes e.dst) in
      Hashtbl.replace inboxes e.dst ((e.src, e.msg) :: prev)
  in
  let rec send_all src = function
    | [] -> ()
    | (dst, msg) :: rest ->
      (if Hashtbl.mem t.nodes dst then begin
         t.sent <- t.sent + 1;
         t.words <- t.words + Msg.size_words msg;
         match tampering ~src ~dst msg with
         | None -> ()
         | Some msg -> gauntlet_push { src; dst; msg }
       end
       else
         (* Addressed to an unregistered (deleted) node: traceable,
            not silent. Not counted as a protocol send. *)
         note_dropped ~now:!now t ~dst msg);
      send_all src rest
  in
  let step_node id =
    let alive =
      match Fault_plan.crash_round plan id with Some c -> c > !now | None -> true
    in
    if alive then begin
      let handler = Hashtbl.find t.nodes id in
      let inbox = List.rev (Option.value ~default:[] (Hashtbl.find_opt inboxes id)) in
      let out = handler ~now:!now ~inbox in
      send_all id out
    end
  in
  while !running do
    active := false;
    let depth = Event_queue.length q in
    while !next_sample <= !now do
      sample_inflight t ~now:!next_sample depth;
      incr next_sample
    done;
    let due = Event_queue.pop_due q ~now:!now in
    Hashtbl.reset inboxes;
    List.iter deliver due;
    (* Deterministic node order keeps runs reproducible. *)
    List.iter step_node ids;
    if Event_queue.is_empty q && not !active then begin
      if !idle >= grace then begin
        quiesced := true;
        running := false
      end
      else incr idle
    end
    else idle := 0;
    (* Synchronous schedule: tick every integer time (idle rounds and
       delay gaps included), as the round model demands. Asynchronous:
       jump straight to the next event, or tick once when only grace or
       pending retries keep the run alive. *)
    let next =
      if sync then !now + 1
      else
        match Event_queue.min_time q with
        | Some tm -> max (!now + 1) tm
        | None -> !now + 1
    in
    now := next;
    if !running && !now >= max_rounds then running := false
  done;
  {
    rounds = min !now max_rounds;
    messages = t.sent;
    words = t.words;
    converged = !quiesced;
    dropped = t.dropped;
    duplicated = t.duplicated;
    delayed = t.delayed;
    tampered = t.tampered;
    per_type = per_type_since t before;
  }

(* ------------------------------------------------------------------ *)
(* Reference engine: the pre-event-queue synchronous round loop, kept *)
(* verbatim (plus the crashed-delivery activity fix, applied to both  *)
(* engines) as the golden oracle the conformance property checks the  *)
(* event-driven engine against.                                       *)

type ref_envelope = { rsrc : int; rdst : int; rmsg : Msg.t; deliver_at : int }

let run_reference ?(max_rounds = 10_000) ?(plan = Fault_plan.none) ?(grace = 0) ?trace
    (t : t) =
  let pure = Fault_plan.is_none plan in
  let before = netsim_counter_snapshot t in
  let frng = Random.State.make [| plan.Fault_plan.seed; 0xfa17 |] in
  let inflight = ref [] in
  let round = ref 0 in
  let quiesced = ref false in
  let idle = ref 0 in
  let active = ref false in
  (* Byzantine rewriting, identical to the event engine: pure hash of
     (seed, src, dst, per-link index), applied before the gauntlet. *)
  let byz = plan.Fault_plan.byzantine <> [] in
  let byz_seq : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let tampering ~src ~dst msg =
    if not byz then Some msg
    else
      match Fault_plan.behaviour_of plan src with
      | None -> Some msg
      | Some _ when not (Byzantine.targeted msg) -> Some msg
      | Some _ ->
        let k = Option.value ~default:0 (Hashtbl.find_opt byz_seq (src, dst)) in
        Hashtbl.replace byz_seq (src, dst) (k + 1);
        note_tampered t ~now:!round ~dst msg;
        (match Byzantine.tamper plan ~src ~dst ~k msg with
        | None ->
          active := true;
          None
        | Some msg' ->
          t.words <- t.words + Msg.size_words msg' - Msg.size_words msg;
          Some msg')
  in
  (* Adaptive observation, byte-for-byte the event engine's: same
     update point (gauntlet entry), same digest chaining, same hot
     rule — the conformance property extends to adaptive plans. *)
  let digest = ref 0 in
  let obs_total = ref 0 in
  let obs_count : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let observe ~src ~dst msg =
    incr obs_total;
    let c = 1 + Option.value ~default:0 (Hashtbl.find_opt obs_count (src, dst)) in
    Hashtbl.replace obs_count (src, dst) c;
    digest := Schedule.observe !digest ~src ~dst ~words:(Msg.size_words msg);
    8 * c >= !obs_total
  in
  let faulted ~src ~dst msg =
    let hot = if plan.Fault_plan.adaptive then observe ~src ~dst msg else false in
    if Fault_plan.severed plan ~round:!round ~src ~dst then begin
      note_dropped ~now:!round t ~dst msg;
      active := true;
      []
    end
    else if
      plan.Fault_plan.drop > 0.
      && (let u = Random.State.float frng 1.0 in
          if plan.Fault_plan.adaptive then Fault_plan.adaptive_drop plan ~u ~hot
          else u < plan.Fault_plan.drop)
    then begin
      note_dropped ~now:!round t ~dst msg;
      active := true;
      []
    end
    else begin
      let copies =
        if
          plan.Fault_plan.duplicate > 0.
          && Random.State.float frng 1.0 < plan.Fault_plan.duplicate
        then begin
          note_duplicated t ~now:!round ~dst msg;
          2
        end
        else 1
      in
      List.init copies (fun _ ->
          let extra =
            if plan.Fault_plan.delay > 0. && Random.State.float frng 1.0 < plan.Fault_plan.delay
            then begin
              note_delayed t ~now:!round ~dst msg;
              1 + Random.State.int frng plan.Fault_plan.max_delay
            end
            else 0
          in
          { rsrc = src; rdst = dst; rmsg = msg; deliver_at = !round + 1 + extra })
    end
  in
  while (not !quiesced) && !round < max_rounds do
    active := false;
    sample_inflight t ~now:!round (List.length !inflight);
    let due, later = List.partition (fun e -> e.deliver_at <= !round) !inflight in
    let inboxes = Hashtbl.create 16 in
    List.iter
      (fun e ->
        match Fault_plan.crash_round plan e.rdst with
        | Some c when c <= !round ->
          note_dropped ~now:!round t ~dst:e.rdst e.rmsg;
          active := true
        | _ ->
          (match trace with
          | Some f -> f ~now:!round ~src:e.rsrc ~dst:e.rdst e.rmsg
          | None -> ());
          note_delivered t ~now:!round ~dst:e.rdst e.rmsg;
          let prev = Option.value ~default:[] (Hashtbl.find_opt inboxes e.rdst) in
          Hashtbl.replace inboxes e.rdst ((e.rsrc, e.rmsg) :: prev))
      due;
    let outgoing = ref [] in
    let ids = sorted_ids t in
    List.iter
      (fun id ->
        let alive =
          match Fault_plan.crash_round plan id with Some c -> c > !round | None -> true
        in
        if alive then begin
          let handler = Hashtbl.find t.nodes id in
          let inbox = List.rev (Option.value ~default:[] (Hashtbl.find_opt inboxes id)) in
          let out = handler ~now:!round ~inbox in
          List.iter
            (fun (dst, msg) ->
              if Hashtbl.mem t.nodes dst then begin
                t.sent <- t.sent + 1;
                t.words <- t.words + Msg.size_words msg;
                if pure then
                  outgoing :=
                    { rsrc = id; rdst = dst; rmsg = msg; deliver_at = !round + 1 }
                    :: !outgoing
                else
                  match tampering ~src:id ~dst msg with
                  | None -> ()
                  | Some msg ->
                    List.iter
                      (fun e -> outgoing := e :: !outgoing)
                      (faulted ~src:id ~dst msg)
              end
              else note_dropped ~now:!round t ~dst msg)
            out
        end)
      ids;
    inflight := !outgoing @ later;
    incr round;
    if !inflight = [] && not !active then begin
      if !idle >= grace then quiesced := true else incr idle
    end
    else idle := 0
  done;
  {
    rounds = !round;
    messages = t.sent;
    words = t.words;
    converged = !quiesced;
    dropped = t.dropped;
    duplicated = t.duplicated;
    delayed = t.delayed;
    tampered = t.tampered;
    per_type = per_type_since t before;
  }
