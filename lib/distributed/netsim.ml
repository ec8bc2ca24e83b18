module Obs = Xheal_obs
module Metrics = Xheal_obs.Metrics
module Tracer = Xheal_obs.Tracer
module Int_table = Xheal_graph.Int_table

type handler = now:int -> inbox:(int * Msg.t) list -> (int * Msg.t) list

(* [obs] is present only when the caller wants the run observed: trace
   events, and the traffic counters and queue-depth gauge in the
   scope's registry. *)
type t = { nodes : (int, handler) Hashtbl.t; obs : Obs.Scope.t option }

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

let create ?obs () = { nodes = Hashtbl.create 32; obs }

let add_node t id handler =
  if Hashtbl.mem t.nodes id then invalid_arg "Netsim.add_node: duplicate id";
  Hashtbl.replace t.nodes id handler

let sorted_ids t =
  List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [])

let check_args engine ~max_rounds ~grace =
  if max_rounds < 0 then invalid_arg ("Netsim." ^ engine ^ ": max_rounds must be >= 0");
  if grace < 0 then invalid_arg ("Netsim." ^ engine ^ ": grace must be >= 0")

(* ------------------------------------------------------------------ *)
(* Per-run traffic tally. Each cell counts one (action, message tag)  *)
(* pair; actions are named after their trace-instant prefixes. The    *)
(* counters [netsim.<action>.<kind>] of an attached scope's registry  *)
(* and [stats.per_type] are both written from the cells once, at the  *)
(* end of the run.                                                    *)

let recv = 0
let drop = 1
let dup = 2
let delay = 3
let byz = 4

let n_kinds = Array.length Msg.kinds

let cell_names prefixes =
  Array.init
    (Array.length prefixes * n_kinds)
    (fun i -> prefixes.(i / n_kinds) ^ Msg.kinds.(i mod n_kinds))

let counter_names =
  cell_names
    [| "netsim.delivered."; "netsim.dropped."; "netsim.duplicated."; "netsim.delayed.";
       "netsim.tampered." |]

let instant_names = cell_names [| "recv:"; "drop:"; "dup:"; "delay:"; "byz:" |]

(* [per_type] rows are sorted by kind name. *)
let tags_by_name =
  let tags = Array.init n_kinds Fun.id in
  Array.stable_sort (fun a b -> String.compare Msg.kinds.(a) Msg.kinds.(b)) tags;
  tags

type tally = { cells : int array; mutable sent : int; mutable words : int }

let new_tally () = { cells = Array.make (Array.length counter_names) 0; sent = 0; words = 0 }

let note t tally action ~now ~dst msg =
  let i = (action * n_kinds) + Msg.tag msg in
  tally.cells.(i) <- tally.cells.(i) + 1;
  match t.obs with
  | Some sc -> Tracer.instant sc.Obs.Scope.tracer ~track:dst ~name:instant_names.(i) ~now
  | None -> ()

let action_total cells action =
  let sum = ref 0 in
  for tag = 0 to n_kinds - 1 do
    sum := !sum + cells.((action * n_kinds) + tag)
  done;
  !sum

(* A kind gets a row when any of its five cells is nonzero, so a kind
   that was only ever delayed keeps an all-zero row. *)
let per_type cells =
  Array.fold_right
    (fun tag acc ->
      let c action = cells.((action * n_kinds) + tag) in
      if c recv + c drop + c dup + c delay + c byz = 0 then acc
      else
        ( Msg.kinds.(tag),
          { delivered = c recv; dropped = c drop; duplicated = c dup; tampered = c byz } )
        :: acc)
    tags_by_name []

let finish t tally ~rounds ~converged =
  let cells = tally.cells in
  (match t.obs with
  | Some sc ->
    Array.iteri
      (fun i v ->
        if v > 0 then Metrics.incr_by (Metrics.counter sc.Obs.Scope.metrics counter_names.(i)) v)
      cells
  | None -> ());
  {
    rounds;
    messages = tally.sent;
    words = tally.words;
    converged;
    dropped = action_total cells drop;
    duplicated = action_total cells dup;
    delayed = action_total cells delay;
    tampered = action_total cells byz;
    per_type = per_type cells;
  }

(* A run that steps claims the clock before its first sample: every
   trace event of the run lands on virtual time. *)
let claim_virtual_clock t =
  match t.obs with
  | Some sc -> Tracer.claim_clock sc.Obs.Scope.tracer "net-virtual"
  | None -> ()

(* The attached scope with its queue-depth gauge, which a run samples
   on every tick. *)
let inflight_probe t =
  Option.map (fun sc -> (sc, Metrics.gauge sc.Obs.Scope.metrics "netsim.inflight.max")) t.obs

let sample_inflight probe ~now depth =
  match probe with
  | Some (sc, gauge) ->
    Metrics.gauge_max gauge depth;
    Tracer.sample sc.Obs.Scope.tracer ~track:Tracer.control_track ~name:"inflight" ~now
      ~value:depth
  | None -> ()

(* Bumps an int-keyed link counter (key [src_slot * n + dst_slot]) and
   returns its value before the bump. *)
let bump links key =
  let k = match Int_table.find links key with k -> k | exception Not_found -> 0 in
  Int_table.replace links key (k + 1);
  k

(* Slot of [id] in the sorted id array, or -1: a binary search typed at
   [int] so the comparisons compile to machine compares. *)
let slot_of (ids : int array) (id : int) =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let v = ids.(mid) in
      if v = id then mid else if v < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)

(* ------------------------------------------------------------------ *)
(* Event-driven engine.                                               *)
(*                                                                    *)
(* One engine serves both delivery models. A calendar ring            *)
(* ({!Event_queue}) holds the in-flight messages by delivery time;    *)
(* the virtual clock [now] advances to the next event time            *)
(* (asynchronous schedules) or tick by tick (the synchronous          *)
(* schedule, which also steps every node at every integer time — the  *)
(* LOCAL round model).                                                *)
(*                                                                    *)
(* A push conses onto its time's bucket: within one delivery time,    *)
(* newer sends pop first. That is exactly the inbox order of the      *)
(* historical synchronous loop (outgoing was consed, then prepended   *)
(* to the leftovers), so under Schedule.sync this engine is           *)
(* bit-identical to run_reference — the conformance property in       *)
(* test_async.ml gates precisely this.                                *)
(*                                                                    *)
(* Node state lives in arrays indexed by slot, the rank of a node id  *)
(* among the sorted ids; envelopes carry slots.                       *)

type envelope = { src : int; dst : int; msg : Msg.t }

(* xlint: hot *)
let run_events ~max_rounds ~plan ~grace ~schedule ?trace (t : t) =
  claim_virtual_clock t;
  let inflight = inflight_probe t in
  let tally = new_tally () in
  let ids = Array.of_list (sorted_ids t) in
  let n = Array.length ids in
  let handlers = Array.map (Hashtbl.find t.nodes) ids in
  let crash =
    Array.map
      (fun id -> Option.value ~default:max_int (Fault_plan.crash_round plan id))
      ids
  in
  let inboxes = Array.make n [] in
  let pure = Fault_plan.is_none plan in
  let sync = Schedule.is_sync schedule in
  let frng = Random.State.make [| plan.Fault_plan.seed; 0xfa17 |] in
  (* Every delay lies in [1, fairness + max_delay]. A message due at or
     after [max_rounds] is never delivered (the run stops first); it only
     has to stay pending, so it waits in the [max_rounds] bucket. That
     keeps the ring no wider than the run, whatever the fairness bound. *)
  let span =
    min max_rounds
      (Schedule.fairness schedule
      + if plan.Fault_plan.delay > 0. then plan.Fault_plan.max_delay else 0)
  in
  let q : envelope Event_queue.t = Event_queue.create ~span in
  let push time e = Event_queue.add q ~time:(min time max_rounds) e in
  (* Per-directed-link send counter: the schedule's adversary keys its
     delay choice on (src, dst, k) so runs replay bit-for-bit. *)
  let link_seq = Int_table.create (if sync then 1 else 64) in
  let sched_delay ~src ~dst e =
    if sync then 1 else Schedule.delay schedule ~src ~dst ~k:(bump link_seq ((e.src * n) + e.dst))
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
     targeted sends from scheduled liars. No RNG is drawn: the rewrite
     is a pure hash of (seed, src, dst, k). Plans without [byzantine]
     entries never call this. *)
  let byzantine = plan.Fault_plan.byzantine <> [] in
  let byz_seq = Int_table.create (if byzantine then 16 else 1) in
  let tampering ~src ~dst e =
    match Fault_plan.behaviour_of plan src with
    | None -> Some e
    | Some _ when not (Byzantine.targeted e.msg) -> Some e
    | Some _ ->
      let k = bump byz_seq ((e.src * n) + e.dst) in
      note t tally byz ~now:!now ~dst e.msg;
      (match Byzantine.tamper plan ~src ~dst ~k e.msg with
      | None ->
        (* Silent-on-protocol: the swallowed send is activity exactly
           like a gauntlet drop — the sender keeps retrying. *)
        active := true;
        None
      | Some msg' ->
        (* Words were charged for the honest payload at send time;
           what actually enters the wire is the forgery. *)
        tally.words <- tally.words + Msg.size_words msg' - Msg.size_words e.msg;
        Some { e with msg = msg' })
  in
  let partitioned = plan.Fault_plan.partitions <> [] in
  (* The fault gauntlet for one send: partition, drop, duplicate,
     delay — same checks, same RNG draw order (drop → duplicate →
     per-copy delay) and same push order as the reference loop, but the
     surviving copies are enqueued directly and share one envelope. *)
  let gauntlet_push ~src ~dst e =
    if pure then push (!now + sched_delay ~src ~dst e) e
    else if partitioned && Fault_plan.severed plan ~round:!now ~src ~dst then begin
      note t tally drop ~now:!now ~dst e.msg;
      active := true
    end
    else if
      plan.Fault_plan.drop > 0. && Random.State.float frng 1.0 < plan.Fault_plan.drop
    then begin
      note t tally drop ~now:!now ~dst e.msg;
      active := true
    end
    else begin
      let copies =
        if
          plan.Fault_plan.duplicate > 0.
          && Random.State.float frng 1.0 < plan.Fault_plan.duplicate
        then begin
          note t tally dup ~now:!now ~dst e.msg;
          2
        end
        else 1
      in
      for _ = 1 to copies do
        let extra =
          if plan.Fault_plan.delay > 0. && Random.State.float frng 1.0 < plan.Fault_plan.delay
          then begin
            note t tally delay ~now:!now ~dst e.msg;
            1 + Random.State.int frng plan.Fault_plan.max_delay
          end
          else 0
        in
        push (!now + sched_delay ~src ~dst e + extra) e
      done
    end
  in
  let quiesced = ref false in
  let idle = ref 0 in
  let running = ref true in
  (* Queue depth is sampled on a fixed virtual-time cadence (every
     integer time), not just when the loop happens to wake. Between two
     event times the queue is untouched, so back-filling the skipped
     ticks with the current pre-pop depth is accurate; under the
     synchronous schedule the loop wakes at every tick anyway, so this is
     one sample per round. *)
  let next_sample = ref 0 in
  (* Delivery and node stepping are hoisted out of the round loop: the
     closures capture only loop-invariant state, so allocating them per
     round would be pure churn (H1). The per-send body is a recursive
     helper rather than a closure over the sender for the same reason.
     Operation order is untouched: the conformance property
     (bit-identity with [run_reference] under Schedule.sync) gates
     these rewrites. *)
  let deliver e =
    let dst = ids.(e.dst) in
    if crash.(e.dst) <= !now then begin
      note t tally drop ~now:!now ~dst e.msg;
      (* A delivery eaten by a crash is activity exactly like a
         gauntlet drop: the sender may be waiting on an ack that
         will never come and needs its retry window kept open. *)
      active := true
    end
    else begin
      let src = ids.(e.src) in
      (match trace with Some f -> f ~now:!now ~src ~dst e.msg | None -> ());
      note t tally recv ~now:!now ~dst e.msg;
      inboxes.(e.dst) <- (src, e.msg) :: inboxes.(e.dst)
    end
  in
  let rec send_all s = function
    | [] -> ()
    | (dst, msg) :: rest ->
      let d = slot_of ids dst in
      (if d >= 0 then begin
         tally.sent <- tally.sent + 1;
         tally.words <- tally.words + Msg.size_words msg;
         let e = { src = s; dst = d; msg } in
         if not byzantine then gauntlet_push ~src:ids.(s) ~dst e
         else
           match tampering ~src:ids.(s) ~dst e with
           | None -> ()
           | Some e -> gauntlet_push ~src:ids.(s) ~dst e
       end
       else
         (* Addressed to an unregistered (deleted) node: traceable,
            not silent. Not counted as a protocol send. *)
         note t tally drop ~now:!now ~dst msg);
      send_all s rest
  in
  let step_node s =
    if crash.(s) > !now then begin
      let inbox = List.rev inboxes.(s) in
      inboxes.(s) <- [];
      send_all s (handlers.(s) ~now:!now ~inbox)
    end
  in
  while !running do
    active := false;
    let depth = Event_queue.length q in
    while !next_sample <= !now do
      sample_inflight inflight ~now:!next_sample depth;
      incr next_sample
    done;
    List.iter deliver (Event_queue.pop_due q ~now:!now);
    (* Deterministic node order keeps runs reproducible. *)
    for s = 0 to n - 1 do
      step_node s
    done;
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
    now := if sync then !now + 1 else Event_queue.next_time q;
    if !running && !now >= max_rounds then running := false
  done;
  finish t tally ~rounds:(min !now max_rounds) ~converged:!quiesced

let run ?(max_rounds = 10_000) ?(plan = Fault_plan.none) ?(grace = 0)
    ?(schedule = Schedule.sync) ?trace t =
  check_args "run" ~max_rounds ~grace;
  (* A run given no time steps nothing, samples nothing and claims no
     clock, exactly like the reference loop. *)
  if max_rounds = 0 then finish t (new_tally ()) ~rounds:0 ~converged:false
  else run_events ~max_rounds ~plan ~grace ~schedule ?trace t

(* ------------------------------------------------------------------ *)
(* Reference engine: the pre-event-queue synchronous round loop, kept *)
(* as the golden oracle the conformance property checks the           *)
(* event-driven engine against. It shares the crashed-delivery        *)
(* activity fix and the per-run traffic tally with the event engine.  *)

type ref_envelope = { rsrc : int; rdst : int; rmsg : Msg.t; deliver_at : int }

(* Only tests call it, as that oracle; moved into test/ it would need
   Netsim's tally internals exported. xlint: disable=U1 *)
let run_reference ?(max_rounds = 10_000) ?(plan = Fault_plan.none) ?(grace = 0) ?trace
    (t : t) =
  check_args "run_reference" ~max_rounds ~grace;
  let pure = Fault_plan.is_none plan in
  let tally = new_tally () in
  let frng = Random.State.make [| plan.Fault_plan.seed; 0xfa17 |] in
  let inflight = ref [] in
  let round = ref 0 in
  let quiesced = ref false in
  let idle = ref 0 in
  let active = ref false in
  (* Byzantine rewriting, identical to the event engine: pure hash of
     (seed, src, dst, per-link index), applied before the gauntlet. *)
  let byzantine = plan.Fault_plan.byzantine <> [] in
  let byz_seq : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let tampering ~src ~dst msg =
    if not byzantine then Some msg
    else
      match Fault_plan.behaviour_of plan src with
      | None -> Some msg
      | Some _ when not (Byzantine.targeted msg) -> Some msg
      | Some _ ->
        let k = Option.value ~default:0 (Hashtbl.find_opt byz_seq (src, dst)) in
        Hashtbl.replace byz_seq (src, dst) (k + 1);
        note t tally byz ~now:!round ~dst msg;
        (match Byzantine.tamper plan ~src ~dst ~k msg with
        | None ->
          active := true;
          None
        | Some msg' ->
          tally.words <- tally.words + Msg.size_words msg' - Msg.size_words msg;
          Some msg')
  in
  let faulted ~src ~dst msg =
    if Fault_plan.severed plan ~round:!round ~src ~dst then begin
      note t tally drop ~now:!round ~dst msg;
      active := true;
      []
    end
    else if
      plan.Fault_plan.drop > 0. && Random.State.float frng 1.0 < plan.Fault_plan.drop
    then begin
      note t tally drop ~now:!round ~dst msg;
      active := true;
      []
    end
    else begin
      let copies =
        if
          plan.Fault_plan.duplicate > 0.
          && Random.State.float frng 1.0 < plan.Fault_plan.duplicate
        then begin
          note t tally dup ~now:!round ~dst msg;
          2
        end
        else 1
      in
      List.init copies (fun _ ->
          let extra =
            if plan.Fault_plan.delay > 0. && Random.State.float frng 1.0 < plan.Fault_plan.delay
            then begin
              note t tally delay ~now:!round ~dst msg;
              1 + Random.State.int frng plan.Fault_plan.max_delay
            end
            else 0
          in
          { rsrc = src; rdst = dst; rmsg = msg; deliver_at = !round + 1 + extra })
    end
  in
  while (not !quiesced) && !round < max_rounds do
    active := false;
    claim_virtual_clock t;
    sample_inflight (inflight_probe t) ~now:!round (List.length !inflight);
    let due, later = List.partition (fun e -> e.deliver_at <= !round) !inflight in
    let inboxes = Hashtbl.create 16 in
    List.iter
      (fun e ->
        match Fault_plan.crash_round plan e.rdst with
        | Some c when c <= !round ->
          note t tally drop ~now:!round ~dst:e.rdst e.rmsg;
          active := true
        | _ ->
          (match trace with
          | Some f -> f ~now:!round ~src:e.rsrc ~dst:e.rdst e.rmsg
          | None -> ());
          note t tally recv ~now:!round ~dst:e.rdst e.rmsg;
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
                tally.sent <- tally.sent + 1;
                tally.words <- tally.words + Msg.size_words msg;
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
              else note t tally drop ~now:!round ~dst msg)
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
  finish t tally ~rounds:!round ~converged:!quiesced
