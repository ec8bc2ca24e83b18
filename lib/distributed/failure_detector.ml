module Detect = Xheal_fault.Detect

type config = Detect.t

(* Per-neighbour monitoring state as parallel arrays: the timeout scan
   below runs for every node on every virtual-time step — the hottest
   path the detector adds — so it must allocate nothing. [phase] is the
   three-state suspicion machine. *)
type watch = {
  peers : int array;
  last_heard : int array;
  level : int array;
  phase : int array;
  since : int array;
}

let alive = 0
let suspected = 1
let confirmed = 2

(* Timeout ladder is capped: three refuted suspicions buy a peer the
   maximum slack, after which evidence of life must arrive within the
   widest window or the suspicion sticks. [latency_bound] assumes
   exactly this cap. *)
let max_level = 3

let make_watch nbrs =
  let peers = Array.of_list nbrs in
  let n = Array.length peers in
  {
    peers;
    last_heard = Array.make n 0;
    level = Array.make n 0;
    phase = Array.make n alive;
    since = Array.make n 0;
  }

let index w p =
  let n = Array.length w.peers in
  let rec go i = if i >= n then -1 else if w.peers.(i) = p then i else go (i + 1) in
  go 0

(* The per-tick suspicion scan. New suspicions are only raised before
   the horizon (beats cease there, so a post-horizon silence proves
   nothing), but a pending suspicion may still confirm during the grace
   window. State transitions mutate the arrays in place and report
   through the pre-built callbacks — no allocation per tick. *)
(* xlint: hot *)
let scan (cfg : Detect.t) w ~now ~on_suspect ~on_confirm =
  let n = Array.length w.peers in
  for i = 0 to n - 1 do
    if w.phase.(i) = alive then begin
      let eff = cfg.Detect.timeout + (w.level.(i) * cfg.Detect.ladder) in
      if now < cfg.Detect.horizon && now - w.last_heard.(i) > eff then begin
        w.phase.(i) <- suspected;
        w.since.(i) <- now;
        on_suspect i
      end
    end
    else if w.phase.(i) = suspected && now - w.since.(i) >= cfg.Detect.confirm then begin
      w.phase.(i) <- confirmed;
      on_confirm i
    end
  done

(* Aggregate outcome counters, shared across all monitor closures of
   one installation. Pure bookkeeping outside the message flow, so the
   sharing cannot perturb determinism. *)
type counters = {
  mutable suspicions : int;
  mutable refutations : int;
  mutable confirmations : int;
  mutable first_confirm : int;
}

let install ?obs net ~config:(cfg : Detect.t) ~peers =
  let c =
    { suspicions = 0; refutations = 0; confirmations = 0; first_confirm = -1 }
  in
  List.iter
    (fun (u, nbrs) ->
      let w = make_watch nbrs in
      let next_beat = ref 0 in
      let tick = ref 0 in
      let out = ref [] in
      (* A refuted suspect climbs the timeout ladder one rung: the same
         slow peer must now be silent for [ladder] more units before it
         is suspected again — the hysteresis that stops a marginal link
         from flapping the detector. *)
      let back_alive i =
        w.phase.(i) <- alive;
        w.level.(i) <- min max_level (w.level.(i) + 1);
        c.refutations <- c.refutations + 1
      in
      let heard src =
        let i = index w src in
        if i >= 0 then begin
          if w.phase.(i) = suspected then back_alive i;
          if w.phase.(i) <> confirmed then w.last_heard.(i) <- !tick
        end
      in
      let refuted target =
        let i = index w target in
        if i >= 0 && w.phase.(i) = suspected then begin
          back_alive i;
          w.last_heard.(i) <- !tick
        end
      in
      let on_suspect i =
        c.suspicions <- c.suspicions + 1;
        let v = w.peers.(i) in
        Array.iter (fun p -> out := (p, Msg.Suspect { target = v }) :: !out) w.peers
      in
      let on_confirm _ =
        c.confirmations <- c.confirmations + 1;
        if c.first_confirm < 0 then c.first_confirm <- !tick;
        Proto_obs.instant obs ~track:u ~name:"confirmed" ~now:!tick
      in
      let beat p = out := (p, Msg.Beat) :: !out in
      (* One inbox walk per step, built once per node: a [List.iter]
         closure over [now] would be allocated on every step. *)
      let rec absorb = function
        | [] -> ()
        | (src, msg) :: rest ->
          (match msg with
          | Msg.Beat -> heard src
          | Msg.Suspect { target } ->
            (* Refute only on evidence: being the target (I am alive,
               by construction of this step), or having heard the
               target within its base timeout. Stale observers stay
               silent rather than vouching. *)
            if target = u then out := (src, Msg.Refute { target = u }) :: !out
            else begin
              let i = index w target in
              if
                i >= 0
                && w.phase.(i) = alive
                && !tick - w.last_heard.(i) <= cfg.Detect.timeout
              then out := (src, Msg.Refute { target }) :: !out
            end
          | Msg.Refute { target } -> refuted target
          | _ -> ());
          absorb rest
      in
      let handler ~now ~inbox =
        tick := now;
        out := [];
        absorb inbox;
        if now < cfg.Detect.horizon && now >= !next_beat then begin
          next_beat := now + cfg.Detect.period;
          Array.iter beat w.peers
        end;
        scan cfg w ~now ~on_suspect ~on_confirm;
        !out
      in
      Netsim.add_node net u handler)
    peers;
  fun () ->
    {
      Detect.detected = c.confirmations > 0;
      latency = c.first_confirm;
      suspicions = c.suspicions;
      refutations = c.refutations;
      confirmations = c.confirmations;
    }

let run ?obs ?(plan = Fault_plan.none) ?(schedule = Schedule.sync) ?max_rounds
    ~config:(cfg : Detect.t) ~victim ?crash_at ~peers () =
  if not (List.mem_assoc victim peers) then
    invalid_arg "Failure_detector.run: victim must be a monitored peer";
  let plan =
    match crash_at with
    | None -> plan
    | Some at ->
      if at < 0 then invalid_arg "Failure_detector.run: crash_at must be >= 0";
      { plan with Fault_plan.crashes = (victim, at) :: plan.Fault_plan.crashes }
  in
  Proto_obs.with_span obs "failure-detector" (fun () ->
      let net = Netsim.create ?obs () in
      let get = install ?obs net ~config:cfg ~peers in
      let fairness = Schedule.fairness schedule in
      let grace = cfg.Detect.period + (2 * fairness) + cfg.Detect.confirm + 4 in
      let stats = Netsim.run ?max_rounds ~plan ~grace ~schedule net in
      let o = get () in
      let o =
        match crash_at with
        | Some at when o.Detect.detected -> { o with Detect.latency = o.Detect.latency - at }
        | _ -> o
      in
      (stats, o))
